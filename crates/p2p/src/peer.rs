//! One peer as a state machine: differential push gossip with the
//! announcement-based convergence protocol, advanced one phase at a time
//! by the runner — [`Peer::tick`] sends the round's shares,
//! [`Peer::commit`] processes what has arrived, [`Peer::finish`] ends
//! the run.
//!
//! The peer never sees the transport: it pushes through
//! sender-side [`PeerLink`]s (which may drop, delay or duplicate
//! messages) into the runner's per-peer inboxes, and keeps its own
//! [`MassLedger`] exact from the [`SendOutcome`]s it observes. Delayed
//! envelopes are held back in a local buffer until their `deliver_at`
//! round; each commit processes due messages in sorted
//! `(deliver_at, from, seq)` order, so the floating-point share sums —
//! and therefore the entire run — depend on the seed alone.

use crate::transport::{Availability, Envelope, MassLedger, PeerLink, PeerMsg, SendOutcome};
use dg_gossip::fanout::TargetDraw;
use dg_gossip::pair::GossipPair;
use dg_gossip::protocol::Convergence;
use dg_graph::NodeId;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// What a peer reports when the run ends.
pub(crate) struct Final {
    /// Final gossip pair, in-flight shares absorbed.
    pub(crate) pair: GossipPair,
    /// Rounds in which this peer actively pushed.
    pub(crate) active_rounds: u64,
    /// Mass this peer's outgoing links destroyed or injected.
    pub(crate) ledger: MassLedger,
    /// Audit probes this peer answered with an attestation.
    pub(crate) audits_answered: u64,
}

/// One node of the deployment: its pair, its RNG stream, its links and
/// what it knows of its neighbours' convergence.
pub(crate) struct Peer {
    id: NodeId,
    /// One link per neighbour; a neighbour's slot indexes `links`,
    /// `neighbour_converged` and `flag_seq` alike.
    links: Vec<PeerLink>,
    slot: HashMap<u32, usize>,
    fanout: usize,
    targets: TargetDraw,
    convergence: Convergence,
    rng: ChaCha8Rng,
    /// Up/down schedule (always up without churn or partitions). A down
    /// peer neither pushes nor processes its inbox; its pair survives
    /// the outage (fail-stop with state persistence).
    availability: Arc<Availability>,
    pair: GossipPair,
    /// The retained share plus everything received this round.
    pending: GossipPair,
    prev_ratio: f64,
    announced: bool,
    stopped: bool,
    neighbour_converged: Vec<bool>,
    /// Highest sender seq that updated each neighbour's convergence
    /// flag: delays can reorder messages, and a stale flag must never
    /// overwrite a fresher one (last-writer-wins by *send* order).
    flag_seq: Vec<u64>,
    round: u64,
    seq: u64,
    holdback: Vec<Envelope>,
    active_rounds: u64,
    ledger: MassLedger,
    audits_answered: u64,
}

impl Peer {
    /// Peer `id` starting from `initial`, pushing to `fanout` of the
    /// destinations of `links` per round, with tolerance `xi`.
    pub(crate) fn new(
        id: NodeId,
        links: Vec<PeerLink>,
        fanout: usize,
        initial: GossipPair,
        xi: f64,
        rng: ChaCha8Rng,
        availability: Arc<Availability>,
    ) -> Self {
        let n = links.len();
        let slot = links
            .iter()
            .enumerate()
            .map(|(slot, link)| (link.dst().0, slot))
            .collect();
        Self {
            id,
            links,
            slot,
            fanout,
            targets: TargetDraw::default(),
            // Announcements always revoke here, as in the engines' default.
            convergence: Convergence::new(xi, false, 1),
            rng,
            availability,
            pair: initial,
            pending: GossipPair::ZERO,
            prev_ratio: initial.ratio(),
            announced: false,
            stopped: false,
            neighbour_converged: vec![false; n],
            flag_seq: vec![0; n],
            round: 0,
            seq: 0,
            holdback: Vec::new(),
            active_rounds: 0,
            ledger: MassLedger::default(),
            audits_answered: 0,
        }
    }

    /// Send this round's shares: split the pair into `k+1` shares, keep
    /// one and push `k` to sampled neighbours. A quiescent, crashed or
    /// isolated peer keeps its whole pair.
    pub(crate) fn tick(&mut self, inboxes: &mut [Vec<Envelope>]) {
        let up = self.availability.is_up(self.id, self.round);
        if !up || self.stopped || self.links.is_empty() {
            self.pending += self.pair;
            return;
        }
        let k = self.fanout.min(self.links.len()).max(1);
        let share = self.pair.share(k + 1);
        self.pending += share; // self share
        let msg = PeerMsg::Share {
            share,
            converged: self.announced,
        };
        for &idx in self.targets.draw(&mut self.rng, self.links.len(), k) {
            self.seq += 1;
            match self.links[idx].send(inboxes, self.id, self.seq, self.round, msg) {
                SendOutcome::Delivered => {}
                SendOutcome::Duplicated => {
                    self.ledger.duplicated += share;
                    self.ledger.shares_duplicated += 1;
                }
                // Detected loss: no ack arrived, so the paper's rule
                // applies — the pushing node pushes the share to itself.
                SendOutcome::Bounced => {
                    self.pending += share;
                    self.ledger.recredited += share;
                    self.ledger.shares_recredited += 1;
                }
                // Undetected (UDP-like) loss: the mass is gone; the
                // ledger surfaces exactly how much.
                SendOutcome::Lost => {
                    self.ledger.lost += share;
                    self.ledger.shares_lost += 1;
                }
            }
        }
        self.active_rounds += 1;
    }

    /// Commit the round: move this peer's inbox into the holdback buffer,
    /// process every envelope whose `deliver_at` has arrived (in sorted
    /// order), update the tracked ratio and (re-)announce convergence to
    /// the neighbourhood. Returns whether the peer has stopped: it and
    /// every neighbour announced.
    pub(crate) fn commit(&mut self, inboxes: &mut [Vec<Envelope>]) -> bool {
        // Every send this phase is stamped for the *next* round, so
        // whether it lands here before or after this drain, it waits in
        // the holdback buffer and is processed in the same sorted order.
        self.holdback.append(&mut inboxes[self.id.index()]);
        let round = self.round;
        let up = self.availability.is_up(self.id, round);
        let mut heard_other = false;
        if up {
            // Split out the due envelopes and process them in sorted
            // order — deterministic float summation. The self share went
            // straight into `pending`, so hearing any envelope implements
            // the paper's |S| > 1 test.
            let mut due: Vec<Envelope> = Vec::new();
            self.holdback.retain(|env| {
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
                        self.pending += share;
                        heard_other = true;
                        Some(converged)
                    }
                    PeerMsg::Announce { converged } => Some(converged),
                    PeerMsg::AuditProbe { nonce } => {
                        // Attest the last committed pair to the prober
                        // (next-round stamp, like the announcements
                        // below). Audit traffic is massless: answered,
                        // lost or unanswered, the mass ledger never moves.
                        if let Some(&slot) = self.slot.get(&env.from.0) {
                            self.seq += 1;
                            let reply = PeerMsg::AuditReply {
                                nonce,
                                ratio_bits: self.pair.ratio().to_bits(),
                            };
                            let _ =
                                self.links[slot].send(inboxes, self.id, self.seq, round + 1, reply);
                            self.audits_answered += 1;
                        }
                        None
                    }
                    // Replies are consumed by whoever probed; they carry
                    // no convergence information.
                    PeerMsg::AuditReply { .. } => None,
                };
                if let (Some(converged), Some(&slot)) = (converged, self.slot.get(&env.from.0)) {
                    if env.seq > self.flag_seq[slot] {
                        self.flag_seq[slot] = env.seq;
                        self.neighbour_converged[slot] = converged;
                    }
                }
            }
        }
        // The shares the peer pushed away are gone; `pending` holds the
        // retained share plus everything received.
        self.pair = std::mem::take(&mut self.pending);

        let ratio = self.pair.ratio();
        let mut changed = false;
        if up && heard_other {
            let was = self.announced;
            self.announced = self
                .convergence
                .observe(was, (ratio - self.prev_ratio).abs());
            changed = self.announced != was;
        }
        // Announce on change and *keep re-announcing while converged*: an
        // announcement dropped by a faulty link would otherwise leave a
        // neighbour's flag stale-false forever — that neighbour keeps
        // pushing, drains its gossip weight into quiescent peers and
        // becomes the next casualty (convergence-detection death
        // cascade). The runner ends the run in the first round every peer
        // is stopped, so the repetition is bounded. (Over lossless
        // links the retransmissions are redundant but harmless.)
        if up && (changed || self.announced) {
            let msg = PeerMsg::Announce {
                converged: self.announced,
            };
            for link in &mut self.links {
                self.seq += 1;
                if matches!(
                    link.send(inboxes, self.id, self.seq, round + 1, msg),
                    SendOutcome::Lost | SendOutcome::Bounced
                ) {
                    self.ledger.announces_lost += 1;
                }
            }
        }
        self.prev_ratio = ratio;

        // A crashed peer freezes its last stopped state (fail-stop with
        // persisted state): a node that went down converged stays
        // converged — its pair cannot change while it is dark — and one
        // that went down active keeps blocking global convergence until
        // it rejoins and settles.
        if up {
            self.stopped =
                Convergence::quiescent(self.announced, self.neighbour_converged.iter().copied());
        }
        self.round += 1;
        self.stopped
    }

    /// End the run: absorb every share still in flight — `inbox` plus
    /// the holdback buffer, in sorted order — so the run's mass
    /// accounting closes exactly (delayed messages count as delivered at
    /// shutdown).
    pub(crate) fn finish(mut self, mut inbox: Vec<Envelope>) -> Final {
        self.holdback.append(&mut inbox);
        self.holdback
            .sort_by_key(|e| (e.deliver_at, e.from.0, e.seq));
        for env in &self.holdback {
            if let PeerMsg::Share { share, .. } = env.msg {
                self.pair += share;
            }
        }
        Final {
            pair: self.pair,
            active_rounds: self.active_rounds,
            ledger: self.ledger,
            audits_answered: self.audits_answered,
        }
    }
}
