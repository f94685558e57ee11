//! The peer runtime's message transport: [`FaultyNetwork`].
//!
//! Every directed link applies seeded, per-link message **loss**,
//! bounded random **delay** (which reorders messages) and
//! **duplication**, and consults a precomputed `Availability` schedule
//! for node **churn** (crash / rejoin) and partition windows, all driven
//! by a [`NetworkProfile`]. The paper's reliable network is the
//! [`NetworkProfile::lossless`] case: a link that never drops, delays or
//! duplicates draws nothing from its stream and delivers every envelope
//! exactly once, in its send round.
//!
//! Determinism: every fault decision on link `src → dst` comes from a
//! private ChaCha8 stream seeded with
//! `node_stream_seed(node_stream_seed(seed ^ LINK_SALT, src), dst)`, and
//! churn downtimes come from per-node streams salted with `CHURN_SALT` —
//! both derived with [`node_stream_seed`], so fault schedules are
//! reproducible and placement-independent. Delivery *processing* order is
//! made deterministic by the peer (messages are committed in sorted
//! `(deliver_at, from, seq)` order), so a pinned `(profile, seed)` run
//! produces bit-identical outcomes whatever order envelopes reach an
//! inbox in.
//!
//! Mass accounting: a lost gossip share is genuinely gone (there is no
//! acknowledgement to recredit from, unlike the synchronous
//! [`LossModel`](dg_gossip::loss::LossModel)) and a duplicated share
//! injects mass. Rather than silently violating the push-sum invariant,
//! every peer tallies the exact lost / injected mass in a [`MassLedger`]
//! that the runner surfaces on the run outcome.

use dg_gossip::node_stream_seed;
use dg_gossip::profile::NetworkProfile;
use dg_gossip::GossipPair;
use dg_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Salt folded into the base seed for per-link fault streams.
const LINK_SALT: u64 = 0x6C69_6E6B_FA17_0001;
/// Salt folded into the base seed for per-node churn streams.
const CHURN_SALT: u64 = 0xC407_12D0_FA17_0002;

/// Peer-to-peer protocol message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeerMsg {
    /// A push-sum share, piggybacking the sender's current convergence
    /// state. The piggyback matters on faulty links: a peer whose
    /// explicit revocation was dropped would otherwise be remembered as
    /// converged forever by its neighbours, which quiesce and starve it
    /// (convergence-detection deadlock). Data traffic refreshing the
    /// flag heals that.
    Share {
        /// The pushed share.
        share: GossipPair,
        /// Whether the sender currently considers itself converged.
        converged: bool,
    },
    /// Convergence announcement (`true`) or revocation (`false`); the
    /// sender is carried by the [`Envelope`].
    Announce {
        /// Whether the sender currently considers itself converged.
        converged: bool,
    },
    /// An audit spot-check: the prober challenges the receiver to attest
    /// its current state. Carries **no gossip mass**, so audit traffic
    /// never moves the [`MassLedger`], whatever the network does to it
    /// (lost probes simply go unanswered).
    AuditProbe {
        /// Challenge nonce, echoed in the reply.
        nonce: u64,
    },
    /// The answer to an [`PeerMsg::AuditProbe`]: a bit-exact attestation
    /// of the responder's current ratio estimate. Massless, like the
    /// probe.
    AuditReply {
        /// The challenge nonce being answered.
        nonce: u64,
        /// `f64::to_bits` of the responder's committed ratio (raw bits,
        /// so the attestation survives transport byte-for-byte).
        ratio_bits: u64,
    },
}

/// One message in flight, stamped with everything the receiver needs to
/// process its inbox deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Sending peer.
    pub from: NodeId,
    /// Sender-local monotone sequence number (orders messages from one
    /// sender even when delays reorder their arrival).
    pub seq: u64,
    /// First round in whose commit phase the receiver may process this
    /// message (`send round + sampled delay`).
    pub deliver_at: u64,
    /// Payload.
    pub msg: PeerMsg,
}

/// What the transport did with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Exactly one copy handed over (possibly delayed).
    Delivered,
    /// Two copies handed over — mass was injected.
    Duplicated,
    /// Dropped *with detection* (`detect_loss = true`, the paper's
    /// model): no acknowledgement arrived, so the sender must push the
    /// share back to itself — mass conserved.
    Bounced,
    /// Dropped silently (`detect_loss = false`, UDP semantics) — for
    /// shares, mass is gone.
    Lost,
}

/// Exact accounting of the mass a faulty network destroyed or injected
/// during a run. Under the lossless profile every field stays zero.
///
/// The closing identity (checked by the test suite):
/// `Σ final pairs = Σ initial pairs − lost + duplicated`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MassLedger {
    /// Total share mass destroyed by *undetected* drops
    /// (`detect_loss = false`) — sampled loss, churn blackouts and
    /// partition cuts alike. With detection on (every shipped preset)
    /// the same drops bounce into [`recredited`](MassLedger::recredited)
    /// instead and this stays zero.
    pub lost: GossipPair,
    /// Total share mass injected by duplication.
    pub duplicated: GossipPair,
    /// Total share mass bounced back to senders by detected loss (mass
    /// conserved — the paper's "pushes the gossip pair to itself" rule).
    pub recredited: GossipPair,
    /// Number of share messages dropped without detection.
    pub shares_lost: u64,
    /// Number of share messages duplicated.
    pub shares_duplicated: u64,
    /// Number of share messages whose loss was detected and re-credited.
    pub shares_recredited: u64,
    /// Number of announcement messages dropped (no mass, but convergence
    /// detection degrades).
    pub announces_lost: u64,
}

impl MassLedger {
    /// Fold another peer's ledger into this one (call in node order to
    /// keep floating-point sums deterministic).
    pub fn merge(&mut self, other: &MassLedger) {
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.recredited += other.recredited;
        self.shares_lost += other.shares_lost;
        self.shares_duplicated += other.shares_duplicated;
        self.shares_recredited += other.shares_recredited;
        self.announces_lost += other.announces_lost;
    }

    /// Whether the run's mass was untouched.
    pub fn is_clean(&self) -> bool {
        self.lost.is_zero() && self.duplicated.is_zero()
    }

    /// The total pair the final states must sum to, given the initial
    /// total: `initial − lost + duplicated`.
    pub fn expected_total(&self, initial: GossipPair) -> GossipPair {
        GossipPair {
            value: initial.value - self.lost.value + self.duplicated.value,
            weight: initial.weight - self.lost.weight + self.duplicated.weight,
        }
    }
}

/// Per-node up/down schedule plus partition windows, materialised up
/// front so every link agrees on who is reachable in which round.
#[derive(Debug)]
pub(crate) struct Availability {
    /// Per node: sorted, disjoint `[down_from, up_at)` intervals.
    down: Vec<Vec<(u64, u64)>>,
    /// Optional two-halves partition window.
    partition: Option<dg_gossip::profile::PartitionWindow>,
    /// Nodes with index below this are in partition group 0.
    half: u32,
}

impl Availability {
    /// Sample a schedule for `n` nodes over `horizon` rounds from the
    /// profile's churn knobs. Each node's crash rolls come from a private
    /// ChaCha8 stream (`node_stream_seed(seed ^ CHURN_SALT, node)`), so
    /// the schedule is reproducible and placement-independent.
    pub fn generate(n: usize, horizon: u64, profile: &NetworkProfile, seed: u64) -> Self {
        let churn = profile.churn;
        let mut down = vec![Vec::new(); n];
        if churn.is_enabled() {
            for (i, intervals) in down.iter_mut().enumerate() {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(node_stream_seed(seed ^ CHURN_SALT, i as u32));
                let mut round = 1; // nobody crashes before the first round
                while round < horizon {
                    if rng.random::<f64>() < churn.crash_probability {
                        let downtime = rng.random_range(churn.min_downtime..=churn.max_downtime);
                        intervals.push((round, round + downtime));
                        round += downtime;
                    } else {
                        round += 1;
                    }
                }
            }
        }
        Self {
            down,
            partition: profile.partition,
            half: (n as u32).div_ceil(2),
        }
    }

    /// Whether `node` is up in `round`.
    pub(crate) fn is_up(&self, node: NodeId, round: u64) -> bool {
        self.down[node.index()]
            .iter()
            .all(|&(from, until)| !(from..until).contains(&round))
    }

    /// Whether a message can travel `a → b` in `round`: both endpoints up
    /// and no partition window cutting between their halves.
    pub(crate) fn link_open(&self, a: NodeId, b: NodeId, round: u64) -> bool {
        if !self.is_up(a, round) || !self.is_up(b, round) {
            return false;
        }
        match &self.partition {
            Some(w) if w.cuts(round) => (a.0 < self.half) == (b.0 < self.half),
            _ => true,
        }
    }
}

/// Fault state of one directed link.
#[derive(Debug)]
struct LinkFaults {
    loss: f64,
    duplicate: f64,
    detect_loss: bool,
    max_delay: u64,
    rng: ChaCha8Rng,
    availability: Arc<Availability>,
}

impl LinkFaults {
    fn drop_outcome(&self) -> SendOutcome {
        if self.detect_loss {
            SendOutcome::Bounced
        } else {
            SendOutcome::Lost
        }
    }

    fn delay(&mut self) -> u64 {
        if self.max_delay > 0 {
            self.rng.random_range(0..=self.max_delay)
        } else {
            0
        }
    }
}

/// Sender-side handle for one directed link, with its fault model baked
/// in. Peers send through these and never see the transport.
#[derive(Debug)]
pub(crate) struct PeerLink {
    dst: NodeId,
    faults: LinkFaults,
}

impl PeerLink {
    /// The destination peer.
    pub(crate) fn dst(&self) -> NodeId {
        self.dst
    }

    /// Send `msg` from `from` during `round` into `inboxes[dst]`; `seq`
    /// is the sender's monotone message counter. Returns what the
    /// transport did so the sender can keep its [`MassLedger`] exact.
    pub fn send(
        &mut self,
        inboxes: &mut [Vec<Envelope>],
        from: NodeId,
        seq: u64,
        round: u64,
        msg: PeerMsg,
    ) -> SendOutcome {
        let faults = &mut self.faults;
        if !faults.availability.link_open(from, self.dst, round) {
            return faults.drop_outcome();
        }
        if faults.loss > 0.0 && faults.rng.random::<f64>() < faults.loss {
            return faults.drop_outcome();
        }
        let delay = faults.delay();
        let duplicate = faults.duplicate > 0.0 && faults.rng.random::<f64>() < faults.duplicate;
        let inbox = &mut inboxes[self.dst.index()];
        let env = Envelope {
            from,
            seq,
            deliver_at: round + delay,
            msg,
        };
        inbox.push(env);
        if duplicate {
            inbox.push(Envelope {
                deliver_at: round + faults.delay(),
                ..env
            });
            return SendOutcome::Duplicated;
        }
        SendOutcome::Delivered
    }
}

/// The message transport: per-peer inboxes, with every link injecting
/// the faults described by a [`NetworkProfile`] (none, for
/// [`NetworkProfile::lossless`]).
#[derive(Debug)]
pub struct FaultyNetwork {
    inboxes: Vec<Vec<Envelope>>,
    profile: NetworkProfile,
    seed: u64,
    availability: Arc<Availability>,
}

impl FaultyNetwork {
    /// Build the transport for `n` peers. `horizon` bounds the churn
    /// schedule (pass the run's round cap); `seed` pins every fault
    /// decision.
    pub fn new(n: usize, profile: NetworkProfile, seed: u64, horizon: u64) -> Self {
        Self {
            inboxes: vec![Vec::new(); n],
            profile,
            seed,
            availability: Arc::new(Availability::generate(n, horizon, &profile, seed)),
        }
    }

    /// Place `envelope` in `peer`'s inbox before the run (tests and
    /// auditors inject probes this way; injected traffic bypasses the
    /// link fault model).
    pub fn inject(&mut self, peer: NodeId, envelope: Envelope) {
        self.inboxes[peer.index()].push(envelope);
    }

    /// Sender-side links from `src` to each of `neighbours` (same order).
    pub(crate) fn links(&self, src: NodeId, neighbours: &[NodeId]) -> Vec<PeerLink> {
        neighbours
            .iter()
            .map(|&dst| {
                let link_seed =
                    node_stream_seed(node_stream_seed(self.seed ^ LINK_SALT, src.0), dst.0);
                PeerLink {
                    dst,
                    faults: LinkFaults {
                        loss: self.profile.loss,
                        duplicate: self.profile.duplicate,
                        detect_loss: self.profile.detect_loss,
                        max_delay: self.profile.max_delay,
                        rng: ChaCha8Rng::seed_from_u64(link_seed),
                        availability: Arc::clone(&self.availability),
                    },
                }
            })
            .collect()
    }

    /// The up/down schedule every peer consults before acting.
    pub(crate) fn availability(&self) -> Arc<Availability> {
        Arc::clone(&self.availability)
    }

    /// Take every peer's inbox, holding whatever was injected before the
    /// run (called once, when the runner builds the peers).
    pub(crate) fn take_inboxes(&mut self) -> Vec<Vec<Envelope>> {
        std::mem::take(&mut self.inboxes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_gossip::profile::{ChurnProfile, PartitionWindow};

    fn share(v: f64) -> PeerMsg {
        PeerMsg::Share {
            share: GossipPair::originator(v),
            converged: false,
        }
    }

    #[test]
    fn reliable_mailboxes_deliver_in_order() {
        let mut net = FaultyNetwork::new(2, NetworkProfile::lossless(), 1, 100);
        let mut links = net.links(NodeId(0), &[NodeId(1)]);
        let mut inboxes = net.take_inboxes();

        assert_eq!(
            links[0].send(&mut inboxes, NodeId(0), 1, 0, share(0.5)),
            SendOutcome::Delivered
        );
        assert_eq!(
            links[0].send(
                &mut inboxes,
                NodeId(0),
                2,
                0,
                PeerMsg::Announce { converged: true }
            ),
            SendOutcome::Delivered
        );

        let [first, second] = &inboxes[1][..] else {
            panic!("expected two envelopes, got {:?}", inboxes[1]);
        };
        assert_eq!(first.msg, share(0.5));
        assert_eq!((first.from, first.seq, first.deliver_at), (NodeId(0), 1, 0));
        assert!(matches!(second.msg, PeerMsg::Announce { converged: true }));
        assert!(inboxes[0].is_empty());
    }

    #[test]
    fn faulty_loss_rate_is_approximately_p() {
        let mut profile = NetworkProfile::lossless();
        profile.loss = 0.3;
        let mut net = FaultyNetwork::new(2, profile, 7, 1000);
        let mut links = net.links(NodeId(0), &[NodeId(1)]);
        let mut inboxes = net.take_inboxes();
        // detect_loss = true (the presets' default): drops bounce.
        let lost = (0..20_000)
            .filter(|&i| {
                links[0].send(&mut inboxes, NodeId(0), i, 0, share(0.5)) == SendOutcome::Bounced
            })
            .count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn undetected_loss_reports_lost() {
        let mut profile = NetworkProfile::lossless();
        profile.loss = 1.0;
        profile.detect_loss = false;
        let mut net = FaultyNetwork::new(2, profile, 7, 1000);
        let mut links = net.links(NodeId(0), &[NodeId(1)]);
        let mut inboxes = net.take_inboxes();
        assert_eq!(
            links[0].send(&mut inboxes, NodeId(0), 1, 0, share(0.5)),
            SendOutcome::Lost
        );
    }

    #[test]
    fn faulty_links_are_deterministic_per_seed() {
        let mut profile = NetworkProfile::lossless();
        profile.loss = 0.5;
        profile.max_delay = 3;
        profile.duplicate = 0.2;
        let outcomes = |seed: u64| -> Vec<SendOutcome> {
            let mut net = FaultyNetwork::new(2, profile, seed, 100);
            let mut links = net.links(NodeId(0), &[NodeId(1)]);
            let mut inboxes = net.take_inboxes();
            (0..200)
                .map(|i| links[0].send(&mut inboxes, NodeId(0), i, i, share(0.5)))
                .collect()
        };
        assert_eq!(outcomes(3), outcomes(3));
        assert_ne!(outcomes(3), outcomes(4));
    }

    #[test]
    fn delay_is_bounded_and_duplication_doubles() {
        let mut profile = NetworkProfile::lossless();
        profile.max_delay = 3;
        profile.duplicate = 0.999_999; // effectively always duplicate
        let mut net = FaultyNetwork::new(2, profile, 11, 100);
        let mut links = net.links(NodeId(0), &[NodeId(1)]);
        let mut inboxes = net.take_inboxes();

        assert_eq!(
            links[0].send(&mut inboxes, NodeId(0), 1, 10, share(0.5)),
            SendOutcome::Duplicated
        );
        assert_eq!(inboxes[1].len(), 2, "exactly two copies");
        for env in &inboxes[1] {
            assert!((10..=13).contains(&env.deliver_at), "{}", env.deliver_at);
            assert_eq!(env.seq, 1);
        }
    }

    #[test]
    fn availability_churn_windows_apply() {
        let profile = NetworkProfile {
            churn: ChurnProfile {
                crash_probability: 0.5,
                min_downtime: 2,
                max_downtime: 4,
            },
            ..NetworkProfile::lossless()
        };
        let av = Availability::generate(8, 200, &profile, 13);
        // Round 0 is always up; with p = 0.5 over 200 rounds every node
        // crashes at least once.
        for node in 0..8u32 {
            assert!(av.is_up(NodeId(node), 0));
            let downs = (0..200).filter(|&r| !av.is_up(NodeId(node), r)).count();
            assert!(downs > 0, "node {node} never crashed");
        }
        // Regenerating with the same seed gives the same schedule.
        let av2 = Availability::generate(8, 200, &profile, 13);
        for node in 0..8u32 {
            for r in 0..200 {
                assert_eq!(av.is_up(NodeId(node), r), av2.is_up(NodeId(node), r));
            }
        }
    }

    #[test]
    fn partition_cuts_cross_half_links_only() {
        let profile = NetworkProfile {
            partition: Some(PartitionWindow {
                from_round: 5,
                until_round: 10,
            }),
            ..NetworkProfile::lossless()
        };
        let av = Availability::generate(10, 100, &profile, 1);
        // Inside the window: same half ok, cross half cut.
        assert!(av.link_open(NodeId(0), NodeId(4), 7));
        assert!(av.link_open(NodeId(5), NodeId(9), 7));
        assert!(!av.link_open(NodeId(0), NodeId(9), 7));
        // Outside the window everything flows.
        assert!(av.link_open(NodeId(0), NodeId(9), 4));
        assert!(av.link_open(NodeId(0), NodeId(9), 10));
    }

    #[test]
    fn ledger_merge_and_expected_total() {
        let mut a = MassLedger {
            lost: GossipPair {
                value: 1.0,
                weight: 0.5,
            },
            shares_lost: 3,
            ..MassLedger::default()
        };
        let b = MassLedger {
            duplicated: GossipPair {
                value: 0.25,
                weight: 0.25,
            },
            shares_duplicated: 1,
            ..MassLedger::default()
        };
        a.merge(&b);
        assert!(!a.is_clean());
        assert_eq!(a.shares_lost, 3);
        assert_eq!(a.shares_duplicated, 1);
        let total = a.expected_total(GossipPair {
            value: 10.0,
            weight: 10.0,
        });
        assert!((total.value - 9.25).abs() < 1e-12);
        assert!((total.weight - 9.75).abs() < 1e-12);
    }

    #[test]
    fn lossless_faulty_transport_reports_reliable_outcomes() {
        let mut net = FaultyNetwork::new(2, NetworkProfile::lossless(), 1, 100);
        let mut links = net.links(NodeId(0), &[NodeId(1)]);
        let mut inboxes = net.take_inboxes();
        for i in 0..100 {
            assert_eq!(
                links[0].send(&mut inboxes, NodeId(0), i, i, share(0.5)),
                SendOutcome::Delivered
            );
        }
    }
}
