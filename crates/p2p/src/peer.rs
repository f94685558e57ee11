//! The peer task: one tokio task per node, running differential push
//! gossip with the announcement-based convergence protocol over a
//! pluggable [`Transport`](crate::transport::Transport) backend.
//!
//! The peer never sees the backend: it pushes through sender-side
//! [`PeerLink`]s (which may drop, delay or duplicate messages) and keeps
//! its own [`MassLedger`] exact from the [`SendOutcome`]s it observes.
//! Delayed envelopes are held back in a local buffer until their
//! `deliver_at` round; each commit processes due messages in sorted
//! `(deliver_at, from, seq)` order, which makes the floating-point share
//! sums — and therefore the entire run — bit-reproducible regardless of
//! thread scheduling.

use crate::transport::{Availability, Envelope, Inbox, MassLedger, PeerLink, PeerMsg, SendOutcome};
use dg_gossip::pair::GossipPair;
use dg_gossip::protocol::Convergence;
use dg_graph::NodeId;
use rand::seq::index::sample;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tokio::sync::mpsc;

/// Coordinator → peer control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctrl {
    /// Send this round's shares.
    Tick,
    /// All shares for the round are in flight; commit the inbox.
    Commit,
    /// Report the final pair and exit.
    Finish,
}

/// Peer → coordinator status messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    /// Shares sent for the current round.
    SendDone(NodeId),
    /// Round committed; `stopped` = self + all neighbours announced.
    Committed {
        /// Reporting peer.
        node: NodeId,
        /// Whether the peer has protocol-stopped.
        stopped: bool,
    },
    /// Final state on shutdown.
    Final {
        /// Reporting peer.
        node: NodeId,
        /// Final gossip pair.
        pair: GossipPair,
        /// Rounds in which this peer actively pushed.
        active_rounds: u64,
        /// Mass this peer's outgoing links destroyed or injected.
        ledger: MassLedger,
        /// Audit probes this peer answered with an attestation.
        audits_answered: u64,
    },
}

/// Static peer configuration.
#[derive(Debug, Clone)]
pub struct PeerSetup {
    /// This peer's id.
    pub id: NodeId,
    /// Neighbour ids.
    pub neighbours: Vec<NodeId>,
    /// Differential fan-out `k`.
    pub fanout: usize,
    /// Initial gossip pair.
    pub initial: GossipPair,
    /// Convergence tolerance ξ.
    pub xi: f64,
    /// RNG for neighbour sampling.
    pub rng: ChaCha8Rng,
    /// Up/down schedule (always-up on the reliable transport). A down
    /// peer neither pushes nor processes its inbox; its pair survives
    /// the outage (fail-stop with state persistence).
    pub availability: Arc<Availability>,
}

/// Run the peer protocol until `Ctrl::Finish`.
///
/// Per round: on `Tick`, split the pair into `k+1` shares, keep one and
/// push `k` through the links; on `Commit`, drain the mailbox into the
/// holdback buffer, process every envelope whose `deliver_at` has
/// arrived (in sorted order), update the tracked ratio and (re-)announce
/// convergence to the neighbourhood. On `Finish`, any still-buffered
/// shares are absorbed into the final pair so the run's mass accounting
/// closes exactly.
pub async fn run_peer(
    setup: PeerSetup,
    mut ctrl: mpsc::UnboundedReceiver<Ctrl>,
    mut mailbox: Inbox,
    mut links: Vec<PeerLink>,
    status: mpsc::UnboundedSender<Status>,
) {
    let PeerSetup {
        id,
        neighbours,
        fanout,
        initial,
        xi,
        mut rng,
        availability,
    } = setup;
    // Announcements always revoke here, as in the engines' default.
    let convergence = Convergence::new(xi, false, None);
    let mut pair = initial;
    let mut pending = GossipPair::ZERO;
    let mut prev_ratio = pair.ratio();
    let mut announced = false;
    let mut stopped = false;
    let mut neighbour_converged = vec![false; neighbours.len()];
    let neighbour_slot: std::collections::HashMap<u32, usize> = neighbours
        .iter()
        .enumerate()
        .map(|(slot, n)| (n.0, slot))
        .collect();
    let mut active_rounds = 0u64;
    let mut round = 0u64;
    let mut seq = 0u64;
    let mut holdback: Vec<Envelope> = Vec::new();
    let mut ledger = MassLedger::default();
    let mut audits_answered = 0u64;
    // Highest sender seq that updated each neighbour's convergence flag:
    // delays can reorder messages, and a stale flag must never overwrite
    // a fresher one (last-writer-wins by *send* order).
    let mut flag_seq = vec![0u64; neighbours.len()];

    // Sanity: the link set must cover exactly the neighbour list.
    debug_assert_eq!(neighbours.len(), links.len());

    while let Some(cmd) = ctrl.recv().await {
        match cmd {
            Ctrl::Tick => {
                let up = availability.is_up(id, round);
                if up && !stopped && !neighbours.is_empty() {
                    let k = fanout.min(neighbours.len()).max(1);
                    let share = pair.share(k + 1);
                    pending += share; // self share
                    let msg = PeerMsg::Share {
                        share,
                        converged: announced,
                    };
                    for idx in sample(&mut rng, links.len(), k) {
                        seq += 1;
                        match links[idx].send(id, seq, round, msg) {
                            SendOutcome::Delivered => {}
                            SendOutcome::Duplicated => {
                                ledger.duplicated += share;
                                ledger.shares_duplicated += 1;
                            }
                            // Detected loss: no ack arrived, so the
                            // paper's rule applies — the pushing node
                            // pushes the share to itself.
                            SendOutcome::Bounced => {
                                pending += share;
                                ledger.recredited += share;
                                ledger.shares_recredited += 1;
                            }
                            // Undetected (UDP-like) loss: the mass is
                            // gone; the ledger surfaces exactly how much.
                            SendOutcome::Lost => {
                                ledger.lost += share;
                                ledger.shares_lost += 1;
                            }
                            // A dropped receiver means that peer already
                            // finished; per the loss rule the share
                            // returns to the sender.
                            SendOutcome::Closed => pending += share,
                        }
                    }
                    active_rounds += 1;
                } else {
                    // Quiescent, crashed or isolated: keep the whole pair.
                    pending += pair;
                }
                let _ = status.send(Status::SendDone(id));
            }
            Ctrl::Commit => {
                // Everything sent during Tick is already in the channel
                // (sends are synchronous), so draining with try_recv
                // observes the complete round; delayed envelopes wait in
                // the holdback buffer for their round.
                while let Ok(env) = mailbox.try_recv() {
                    holdback.push(env);
                }
                let up = availability.is_up(id, round);
                let mut heard_other = false;
                if up {
                    // Split out the due envelopes and process them in
                    // sorted order — deterministic float summation. The
                    // self share went straight into `pending`, so hearing
                    // any envelope implements the paper's |S| > 1 test.
                    let mut due: Vec<Envelope> = Vec::new();
                    holdback.retain(|env| {
                        if env.deliver_at <= round {
                            due.push(*env);
                            false
                        } else {
                            true
                        }
                    });
                    due.sort_by_key(|e| (e.deliver_at, e.from.0, e.seq));
                    for env in due {
                        let converged = match env.msg {
                            PeerMsg::Share { share, converged } => {
                                pending += share;
                                heard_other = true;
                                Some(converged)
                            }
                            PeerMsg::Announce { converged } => Some(converged),
                            PeerMsg::AuditProbe { nonce } => {
                                // Attest the last committed pair to the
                                // prober (next-round stamp, like the
                                // announcements below). Audit traffic is
                                // massless: answered, lost or unanswered,
                                // the mass ledger never moves.
                                if let Some(&slot) = neighbour_slot.get(&env.from.0) {
                                    seq += 1;
                                    let _ = links[slot].send(
                                        id,
                                        seq,
                                        round + 1,
                                        PeerMsg::AuditReply {
                                            nonce,
                                            ratio_bits: pair.ratio().to_bits(),
                                        },
                                    );
                                    audits_answered += 1;
                                }
                                None
                            }
                            // Replies are consumed by whoever probed;
                            // they carry no convergence information.
                            PeerMsg::AuditReply { .. } => None,
                        };
                        if let Some(converged) = converged {
                            if let Some(&slot) = neighbour_slot.get(&env.from.0) {
                                if env.seq > flag_seq[slot] {
                                    flag_seq[slot] = env.seq;
                                    neighbour_converged[slot] = converged;
                                }
                            }
                        }
                    }
                }
                // The shares the peer pushed away are gone; `pending`
                // holds the retained share plus everything received.
                pair = pending;
                pending = GossipPair::ZERO;

                let ratio = pair.ratio();
                let mut changed = false;
                if up && heard_other {
                    let was = announced;
                    announced = convergence.observe(was, (ratio - prev_ratio).abs());
                    changed = announced != was;
                }
                // Announce on change and *keep re-announcing while
                // converged*: an announcement dropped by a faulty link
                // would otherwise leave a neighbour's flag stale-false
                // forever — that neighbour keeps pushing, drains its
                // gossip weight into quiescent peers and becomes the
                // next casualty (convergence-detection death cascade).
                // The coordinator ends the run in the first round every
                // peer is stopped, so the repetition is bounded. (On the
                // reliable transport the retransmissions are redundant
                // but harmless.)
                if up && (changed || announced) {
                    // Commit-phase sends race with the other peers'
                    // same-round drains, so they are stamped for the
                    // *next* round: the coordinator barrier guarantees
                    // they sit in the channel before round `round + 1`
                    // commits, which keeps processing deterministic.
                    for link in &mut links {
                        seq += 1;
                        if matches!(
                            link.send(
                                id,
                                seq,
                                round + 1,
                                PeerMsg::Announce {
                                    converged: announced
                                }
                            ),
                            SendOutcome::Lost | SendOutcome::Bounced
                        ) {
                            ledger.announces_lost += 1;
                        }
                    }
                }
                prev_ratio = ratio;

                // A crashed peer freezes its last stopped state
                // (fail-stop with persisted state): a node that went
                // down converged stays converged — its pair cannot
                // change while it is dark — and one that went down
                // active keeps blocking global convergence until it
                // rejoins and settles.
                if up {
                    stopped =
                        Convergence::quiescent(announced, neighbour_converged.iter().copied());
                }
                let _ = status.send(Status::Committed { node: id, stopped });
                round += 1;
            }
            Ctrl::Finish => {
                // Absorb in-flight shares (mailbox + holdback) so the
                // final mass accounting closes: delayed messages are
                // treated as delivered at shutdown.
                while let Ok(env) = mailbox.try_recv() {
                    holdback.push(env);
                }
                holdback.sort_by_key(|e| (e.deliver_at, e.from.0, e.seq));
                for env in holdback.drain(..) {
                    if let PeerMsg::Share { share, .. } = env.msg {
                        pair += share;
                    }
                }
                let _ = status.send(Status::Final {
                    node: id,
                    pair,
                    active_rounds,
                    ledger,
                    audits_answered,
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Availability;

    #[test]
    fn peer_setup_is_constructible() {
        use rand::SeedableRng;
        let s = PeerSetup {
            id: NodeId(0),
            neighbours: vec![NodeId(1)],
            fanout: 1,
            initial: GossipPair::originator(0.5),
            xi: 1e-4,
            rng: ChaCha8Rng::seed_from_u64(0),
            availability: Arc::new(Availability::always_up(2)),
        };
        assert_eq!(s.neighbours.len(), 1);
        assert!(s.availability.is_up(NodeId(0), 0));
    }
}
