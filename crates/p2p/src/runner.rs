//! The round clock: builds one peer state machine per node, drives
//! every round as a tick phase then a commit phase on the calling
//! thread, and collects the results.

use crate::peer::Peer;
use crate::transport::{FaultyNetwork, MassLedger};
use dg_gossip::pair::GossipPair;
use dg_gossip::profile::NetworkProfile;
use dg_gossip::{node_stream_seed, AdversaryMix, FanoutPolicy, GossipError};
use dg_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Convergence tolerance ξ.
    pub xi: f64,
    /// Fan-out policy.
    pub fanout: FanoutPolicy,
    /// Round cap.
    pub max_rounds: usize,
    /// Base RNG seed; peer `i`'s stream is derived with
    /// [`node_stream_seed`] — the same per-node derivation the batched
    /// round engine uses, so peer streams are uncorrelated and
    /// placement-independent. Fault streams (per-link, per-node churn)
    /// derive from the same base seed under distinct salts.
    pub seed: u64,
    /// Network fault profile the run's [`FaultyNetwork`] injects.
    /// [`NetworkProfile::lossless`] (the default) is the paper's reliable
    /// network: no link drops, delays or duplicates anything.
    pub profile: NetworkProfile,
    /// Adversarial mix: the total adversary fraction maps onto
    /// *byzantine* peers — selected deterministically from `seed` via
    /// [`AdversaryMix::byzantine_peers`] — that falsify their gossip
    /// input to the maximal lie (ratio 1) before the run starts.
    /// Composes with any profile, lossless or faulty; the
    /// [`MassLedger`] invariant is checked against the *falsified*
    /// initial total ([`DistributedOutcome::initial_total`]).
    pub adversary: AdversaryMix,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            xi: 1e-6,
            fanout: FanoutPolicy::Differential,
            max_rounds: 10_000,
            seed: 0,
            profile: NetworkProfile::lossless(),
            adversary: AdversaryMix::none(),
        }
    }
}

impl DistributedConfig {
    /// The byzantine peer ids of this config at network size `n`
    /// (ascending; empty for a zero mix).
    pub fn byzantine_peers(&self, n: usize) -> Vec<u32> {
        self.adversary.byzantine_peers(n, self.seed)
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether all peers stopped before the cap.
    pub converged: bool,
    /// Final per-peer ratio estimates.
    pub estimates: Vec<f64>,
    /// Final per-peer pairs.
    pub pairs: Vec<GossipPair>,
    /// Rounds in which each peer actively pushed.
    pub active_rounds: Vec<u64>,
    /// Audit probes each peer answered with an attestation (all-zero
    /// unless an auditor injected probes into the run).
    pub audits_answered: Vec<u64>,
    /// Exact accounting of mass destroyed / injected by the transport
    /// (all-zero under the lossless profile). The push-sum invariant under
    /// faults is `Σ pairs = Σ initial − lost + duplicated`; use
    /// [`DistributedOutcome::total_pair`] to check it.
    pub ledger: MassLedger,
    /// The summed initial pair the run actually started from — *after*
    /// byzantine falsification, so the mass invariant stays checkable
    /// under attack: `total_pair ≈ ledger.expected_total(initial_total)`.
    pub initial_total: GossipPair,
}

impl DistributedOutcome {
    /// The summed final pair (total surviving mass), in node order.
    pub fn total_pair(&self) -> GossipPair {
        self.pairs.iter().copied().sum()
    }
}

/// Run differential push gossip as one state machine per peer, over a
/// [`FaultyNetwork`] injecting `config.profile` with fault streams seeded
/// from `config.seed`.
///
/// `initial[i]` is peer `i`'s starting gossip pair (use
/// [`GossipPair::originator`] on every node for averaging, or a single
/// originator for sum mode, exactly as with the synchronous engine).
pub fn run_distributed(
    graph: &Graph,
    config: DistributedConfig,
    initial: Vec<GossipPair>,
) -> Result<DistributedOutcome, GossipError> {
    let profile = config.profile.validated()?;
    let transport = FaultyNetwork::new(
        graph.node_count(),
        profile,
        config.seed,
        config.max_rounds as u64,
    );
    run_with_transport(graph, config, initial, transport)
}

/// Run the peer deployment over an explicit [`FaultyNetwork`].
///
/// [`run_distributed`] is the convenience wrapper that builds it from the
/// config; tests and auditors use this entry point to inject envelopes
/// before the run or to seed the fault streams apart from the peers'.
pub fn run_with_transport(
    graph: &Graph,
    config: DistributedConfig,
    initial: Vec<GossipPair>,
    transport: FaultyNetwork,
) -> Result<DistributedOutcome, GossipError> {
    let n = graph.node_count();
    if initial.len() != n {
        return Err(GossipError::StateSizeMismatch {
            given: initial.len(),
            expected: n,
        });
    }
    config.adversary.validated()?;
    // Byzantine input falsification: an adversarial peer reports the
    // maximal lie — value := weight, i.e. ratio 1 — instead of its true
    // input. The protocol below runs unmodified (byzantine peers follow
    // push-sum faithfully; their attack is the falsified *input*), so
    // mass stays conserved relative to the falsified totals and the
    // achievable bias is bounded by the adversary fraction.
    let mut initial = initial;
    for id in config.byzantine_peers(n) {
        let pair = &mut initial[id as usize];
        pair.value = pair.weight;
    }
    let initial_total: GossipPair = initial.iter().copied().sum();
    run_segment(
        graph,
        config,
        initial,
        transport,
        config.seed,
        initial_total,
    )
}

/// The segment core every entry point funnels into: drive the peers
/// over already-prepared inputs. Fresh runs arrive here with
/// falsified inputs and `stream_seed == config.seed`; resumed runs
/// ([`crate::checkpoint::resume_distributed`]) arrive with the
/// checkpointed pairs, the *original* falsified total (so the mass
/// invariant spans the restart) and a continuation stream seed.
pub(crate) fn run_segment(
    graph: &Graph,
    config: DistributedConfig,
    initial: Vec<GossipPair>,
    mut transport: FaultyNetwork,
    stream_seed: u64,
    initial_total: GossipPair,
) -> Result<DistributedOutcome, GossipError> {
    let n = graph.node_count();
    let fanouts = config.fanout.resolve(graph)?;

    let mut inboxes = transport.take_inboxes();
    let availability = transport.availability();
    let mut peers: Vec<Peer> = (0..n)
        .map(|i| {
            let id = NodeId(i as u32);
            let neighbours: Vec<NodeId> = graph.neighbours(id).iter().map(|&w| NodeId(w)).collect();
            Peer::new(
                id,
                transport.links(id, &neighbours),
                fanouts[i],
                initial[i],
                config.xi,
                ChaCha8Rng::seed_from_u64(node_stream_seed(stream_seed, i as u32)),
                Arc::clone(&availability),
            )
        })
        .collect();

    // The paper's discrete clock as a barrier: every peer sends, then
    // every peer commits.
    let mut rounds = 0;
    let mut converged = false;
    while rounds < config.max_rounds && !converged {
        for peer in &mut peers {
            peer.tick(&mut inboxes);
        }
        let mut all_stopped = true;
        for peer in &mut peers {
            all_stopped &= peer.commit(&mut inboxes);
        }
        rounds += 1;
        converged = all_stopped;
    }

    // Ledgers merge in node order so the floating-point totals are
    // deterministic.
    let mut pairs = Vec::with_capacity(n);
    let mut active_rounds = Vec::with_capacity(n);
    let mut audits_answered = Vec::with_capacity(n);
    let mut ledger = MassLedger::default();
    for (peer, inbox) in peers.into_iter().zip(inboxes) {
        let last = peer.finish(inbox);
        pairs.push(last.pair);
        active_rounds.push(last.active_rounds);
        audits_answered.push(last.audits_answered);
        ledger.merge(&last.ledger);
    }

    let estimates = pairs.iter().map(GossipPair::ratio).collect();
    Ok(DistributedOutcome {
        rounds,
        converged,
        estimates,
        pairs,
        active_rounds,
        audits_answered,
        ledger,
        initial_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Envelope, PeerMsg};
    use dg_graph::{generators, pa};

    fn averaging_initial(values: &[f64]) -> Vec<GossipPair> {
        values.iter().map(|&v| GossipPair::originator(v)).collect()
    }

    #[test]
    fn distributed_average_on_complete_graph() {
        let g = generators::complete(16);
        let values: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let mean = values.iter().sum::<f64>() / 16.0;
        let out =
            run_distributed(&g, DistributedConfig::default(), averaging_initial(&values)).unwrap();
        assert!(out.converged, "did not converge in {} rounds", out.rounds);
        assert!(out.ledger.is_clean());
        for (i, e) in out.estimates.iter().enumerate() {
            assert!((e - mean).abs() < 1e-3, "peer {i}: {e} vs {mean}");
        }
    }

    #[test]
    fn distributed_average_on_pa_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 120, m: 2 }, &mut rng).unwrap();
        let values: Vec<f64> = (0..120).map(|i| ((i * 13) % 29) as f64 / 29.0).collect();
        let mean = values.iter().sum::<f64>() / 120.0;
        let out =
            run_distributed(&g, DistributedConfig::default(), averaging_initial(&values)).unwrap();
        assert!(out.converged);
        for e in &out.estimates {
            assert!((e - mean).abs() < 1e-2, "{e} vs {mean}");
        }
    }

    #[test]
    fn mass_is_conserved_in_distributed_run() {
        let g = generators::ring(12).unwrap();
        let values: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let total: f64 = values.iter().sum();
        let out = run_distributed(
            &g,
            DistributedConfig {
                max_rounds: 50,
                xi: 1e-12, // won't converge in 50 rounds; that's fine
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        let mass = out.total_pair();
        assert!(
            (mass.value - total).abs() < 1e-9,
            "value mass {} vs {total}",
            mass.value
        );
        assert!(
            (mass.weight - 12.0).abs() < 1e-9,
            "weight mass {}",
            mass.weight
        );
    }

    #[test]
    fn wrong_initial_size_is_rejected() {
        let g = generators::complete(4);
        let err = run_distributed(&g, DistributedConfig::default(), vec![GossipPair::ZERO; 3]);
        assert!(matches!(err, Err(GossipError::StateSizeMismatch { .. })));
    }

    #[test]
    fn invalid_profile_is_rejected() {
        let g = generators::complete(4);
        let mut profile = NetworkProfile::lossless();
        profile.loss = 2.0;
        let err = run_distributed(
            &g,
            DistributedConfig {
                profile,
                ..DistributedConfig::default()
            },
            vec![GossipPair::originator(0.5); 4],
        );
        assert!(matches!(err, Err(GossipError::InvalidProfile(_))));
    }

    #[test]
    fn quiescent_peers_stop_pushing() {
        // Uniform values converge almost immediately; active rounds should
        // be far below the cap for every peer.
        let g = generators::complete(10);
        let values = vec![0.4; 10];
        let out = run_distributed(
            &g,
            DistributedConfig {
                max_rounds: 1000,
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.active_rounds.iter().all(|&a| a < 20));
    }

    #[test]
    fn byzantine_peers_bias_the_average_within_the_fraction_bound() {
        let g = generators::complete(20);
        let values = vec![0.5; 20];
        let honest_mean = 0.5;
        let config = DistributedConfig {
            seed: 4,
            adversary: AdversaryMix {
                slander_fraction: 0.2,
                ..AdversaryMix::none()
            },
            ..DistributedConfig::default()
        };
        let byzantine = config.byzantine_peers(20);
        assert_eq!(byzantine.len(), 4);
        let out = run_distributed(&g, config, averaging_initial(&values)).unwrap();
        assert!(out.converged);
        // The run conserves the *falsified* mass exactly...
        assert!((out.initial_total.value - (16.0 * 0.5 + 4.0)).abs() < 1e-12);
        let total = out.total_pair();
        assert!((total.value - out.initial_total.value).abs() < 1e-9);
        // ...and the achieved bias is positive but bounded by
        // fraction × (1 − honest mean).
        let distorted = out.initial_total.value / out.initial_total.weight;
        let bias = distorted - honest_mean;
        assert!(bias > 0.05, "attack had no effect: {bias}");
        assert!(bias <= 0.2 * (1.0 - honest_mean) + 1e-12, "bias {bias}");
        for e in &out.estimates {
            assert!((e - distorted).abs() < 1e-3);
        }
    }

    #[test]
    fn zero_adversary_mix_is_bit_identical() {
        let g = generators::complete(12);
        let values: Vec<f64> = (0..12).map(|i| i as f64 / 11.0).collect();
        let honest =
            run_distributed(&g, DistributedConfig::default(), averaging_initial(&values)).unwrap();
        let with_zero_mix = run_distributed(
            &g,
            DistributedConfig {
                adversary: AdversaryMix {
                    sybil_fraction: 0.0,
                    sybil_ring: 3,
                    wash_threshold: 0.9,
                    ..AdversaryMix::none()
                },
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        assert_eq!(honest, with_zero_mix);
    }

    #[test]
    fn injected_audit_probes_are_answered_and_massless() {
        let g = generators::complete(8);
        let values: Vec<f64> = (0..8).map(|i| i as f64 / 7.0).collect();
        let config = DistributedConfig::default();
        let lossless = || {
            FaultyNetwork::new(
                8,
                NetworkProfile::lossless(),
                config.seed,
                config.max_rounds as u64,
            )
        };
        let base = run_with_transport(&g, config, averaging_initial(&values), lossless()).unwrap();
        assert_eq!(base.audits_answered, vec![0; 8]);

        // Same run, but neighbour 1 spot-checks peer 0 three times before
        // round 0 commits.
        let mut net = lossless();
        for nonce in 0..3u64 {
            net.inject(
                NodeId(0),
                Envelope {
                    from: NodeId(1),
                    seq: u64::MAX - nonce,
                    deliver_at: 0,
                    msg: PeerMsg::AuditProbe { nonce },
                },
            );
        }
        let out = run_with_transport(&g, config, averaging_initial(&values), net).unwrap();
        assert_eq!(out.audits_answered[0], 3, "peer 0 attests every probe");
        assert_eq!(out.audits_answered[1..], base.audits_answered[1..]);
        // Audit traffic carries no gossip mass: the probed run is
        // bit-identical to the unprobed one, ledger included.
        assert_eq!(out.pairs, base.pairs);
        assert_eq!(out.estimates, base.estimates);
        assert_eq!(out.ledger, base.ledger);
        assert_eq!(out.rounds, base.rounds);
    }

    #[test]
    fn audit_probes_on_faulty_transport_leave_mass_accounting_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 60, m: 2 }, &mut rng).unwrap();
        let values: Vec<f64> = (0..60).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let config = DistributedConfig {
            xi: 1e-4,
            seed: 21,
            max_rounds: 5_000,
            profile: NetworkProfile::lossy(),
            ..DistributedConfig::default()
        };
        let mut net = FaultyNetwork::new(60, NetworkProfile::lossy(), 21, 5_000);
        let targets = [0u32, 5, 17];
        for (i, &target) in targets.iter().enumerate() {
            let from = NodeId(g.neighbours(NodeId(target))[0]);
            net.inject(
                NodeId(target),
                Envelope {
                    from,
                    seq: u64::MAX - i as u64,
                    deliver_at: 0,
                    msg: PeerMsg::AuditProbe { nonce: i as u64 },
                },
            );
        }
        let out = run_with_transport(&g, config, averaging_initial(&values), net).unwrap();
        assert!(out.converged, "probed lossy run hit the cap");
        for &t in &targets {
            assert_eq!(out.audits_answered[t as usize], 1, "target {t}");
        }
        // Replies ride the faulty links (and may be lost), yet the mass
        // identity still closes exactly: probe and reply are massless.
        let initial: GossipPair = values.iter().map(|&v| GossipPair::originator(v)).sum();
        let expected = out.ledger.expected_total(initial);
        let actual = out.total_pair();
        assert!(
            (actual.value - expected.value).abs() < 1e-9,
            "value {} vs {}",
            actual.value,
            expected.value
        );
        assert!(
            (actual.weight - expected.weight).abs() < 1e-9,
            "weight {} vs {}",
            actual.weight,
            expected.weight
        );
    }

    #[test]
    fn lossy_profile_still_converges_and_ledger_closes() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 60, m: 2 }, &mut rng).unwrap();
        let values: Vec<f64> = (0..60).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let out = run_distributed(
            &g,
            DistributedConfig {
                xi: 1e-4,
                seed: 21,
                max_rounds: 5_000,
                profile: NetworkProfile::lossy(),
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        assert!(out.converged, "lossy run hit the cap");
        assert!(
            out.ledger.shares_recredited > 0,
            "10% loss must bounce something"
        );
        // Mass accounting closes exactly: final = initial − lost + dup.
        let initial: GossipPair = values.iter().map(|&v| GossipPair::originator(v)).sum();
        let expected = out.ledger.expected_total(initial);
        let actual = out.total_pair();
        assert!(
            (actual.value - expected.value).abs() < 1e-9,
            "value {} vs {}",
            actual.value,
            expected.value
        );
        assert!(
            (actual.weight - expected.weight).abs() < 1e-9,
            "weight {} vs {}",
            actual.weight,
            expected.weight
        );
    }
}
