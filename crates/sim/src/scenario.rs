//! Reproducible scenario construction.
//!
//! One seeded [`RunConfig`] deterministically produces a complete
//! experiment substrate: the PA overlay, the behaviour population
//! (honest / free-riding peers), and the direct-interaction trust matrix
//! (either the exact latent qualities or estimates from a simulated
//! transaction workload).

use crate::adversary::AdversaryAssignment;
use crate::config::RunConfig;
use dg_core::behavior::{Behavior, Population};
use dg_core::reputation::{trust_from_qualities, ReputationSystem};
use dg_core::CoreError;
use dg_graph::{pa, Graph};
use dg_trust::{TrustMatrix, WeightParams};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Overlay topology family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Preferential-attachment power-law graph (the paper's setting).
    Pa,
    /// Complete graph — the idealisation of the Section 5.2 analysis
    /// (every node is every other node's neighbour), used by the Eq. (17)
    /// ablation.
    Complete,
}

/// How the trust matrix is produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrustSource {
    /// Neighbours know each other's latent quality exactly (analytical
    /// limit; deterministic given the population).
    Exact,
    /// Trust is estimated from a simulated transaction workload with
    /// this many transactions per directed edge.
    Workload {
        /// Transactions per directed neighbour pair.
        transactions_per_edge: u32,
    },
}

/// A fully built scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The overlay topology.
    pub graph: Graph,
    /// Behaviour profiles.
    pub population: Population,
    /// Direct-interaction trust matrix.
    pub trust: TrustMatrix,
    /// Weight law.
    pub weights: WeightParams,
    /// Per-node adversarial strategies compiled from
    /// [`RunConfig::adversary`].
    pub adversaries: AdversaryAssignment,
    /// The config that produced everything.
    pub config: RunConfig,
}

impl Scenario {
    /// Build a scenario from its config (deterministic). Reads the
    /// substrate knobs, the adversary mix and the engine kind; the
    /// round-loop and gossip knobs ride along for the engines.
    pub fn build(config: RunConfig) -> Result<Self, CoreError> {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let graph = match config.topology {
            Topology::Pa => pa::preferential_attachment(
                pa::PaConfig {
                    nodes: config.nodes,
                    m: config.m,
                },
                &mut rng,
            )?,
            Topology::Complete => dg_graph::generators::complete(config.nodes),
        };

        let (lo, hi) = config.quality_range;
        let behaviors = (0..config.nodes)
            .map(|_| {
                if rng.random::<f64>() < config.free_rider_fraction {
                    Behavior::FreeRider {
                        serve_probability: 0.1 * rng.random::<f64>(),
                    }
                } else {
                    Behavior::Honest {
                        quality: lo + (hi - lo) * rng.random::<f64>(),
                    }
                }
            })
            .collect();
        let mut population = Population::new(behaviors);

        // Compile the adversary mix into per-node strategies before the
        // trust substrate is built, so leech roles (sybils,
        // whitewashers) are reflected in the latent qualities and the
        // workload. The assignment draws from its own seed stream: a
        // zero-fraction mix consumes nothing and leaves the build
        // bit-identical to an honest run.
        let adversaries = AdversaryAssignment::assign(config.nodes, config.adversary, config.seed)
            .map_err(dg_core::CoreError::from)?;
        adversaries.apply_to_population(&mut population);

        let mut trust = match config.trust_source {
            TrustSource::Exact => trust_from_qualities(&graph, &population.latent_qualities()),
            TrustSource::Workload {
                transactions_per_edge,
            } => crate::workload::estimate_trust(
                &graph,
                &population,
                transactions_per_edge,
                config.ewma_rate,
                &mut rng,
            ),
        };
        if config.far_partners > 0 {
            let qualities = population.latent_qualities();
            crate::workload::add_far_interactions(
                &graph,
                &qualities,
                config.far_partners,
                &mut trust,
                &mut rng,
            );
        }

        let weights = WeightParams::new(config.weight_a, config.weight_b)?;
        Ok(Self {
            graph,
            population,
            trust,
            weights,
            adversaries,
            config,
        })
    }

    /// The reputation system over this scenario.
    pub fn system(&self) -> Result<ReputationSystem<'_>, CoreError> {
        ReputationSystem::new(&self.graph, self.trust.clone(), self.weights)
    }

    /// A fresh RNG stream for the gossip phase, decoupled from the
    /// construction stream (so topology stays fixed when re-running
    /// gossip with different sub-seeds).
    pub fn gossip_rng(&self, stream: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::NodeId;

    #[test]
    fn build_is_deterministic() {
        let cfg = RunConfig::with_nodes(200);
        let a = Scenario::build(cfg).unwrap();
        let b = Scenario::build(cfg).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.trust, b.trust);
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::build(RunConfig::with_nodes(200).with_seed(1)).unwrap();
        let b = Scenario::build(RunConfig::with_nodes(200).with_seed(2)).unwrap();
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn free_rider_fraction_is_respected() {
        let cfg = RunConfig {
            nodes: 2000,
            free_rider_fraction: 0.3,
            ..RunConfig::default()
        };
        let s = Scenario::build(cfg).unwrap();
        let free_riders = s
            .population
            .iter()
            .filter(|(_, b)| matches!(b, Behavior::FreeRider { .. }))
            .count();
        let fraction = free_riders as f64 / 2000.0;
        assert!((fraction - 0.3).abs() < 0.05, "fraction {fraction}");
    }

    #[test]
    fn exact_trust_matches_latent_quality() {
        let s = Scenario::build(RunConfig::with_nodes(100)).unwrap();
        let q = s.population.latent_qualities();
        for v in s.graph.nodes() {
            for &w in s.graph.neighbours(v) {
                let t = s.trust.get(v, NodeId(w)).expect("neighbour entry");
                assert!((t.get() - q[w as usize]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn workload_trust_is_populated_and_plausible() {
        let cfg = RunConfig {
            nodes: 100,
            trust_source: TrustSource::Workload {
                transactions_per_edge: 30,
            },
            ..RunConfig::default()
        };
        let s = Scenario::build(cfg).unwrap();
        assert!(s.trust.entry_count() > 0);
        // Estimated trust should correlate with latent quality.
        let q = s.population.latent_qualities();
        let mut diffs = Vec::new();
        for (_, j, t) in s.trust.entries() {
            diffs.push((t.get() - q[j.index()]).abs());
        }
        let mean_diff = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!(mean_diff < 0.25, "mean |t - q| = {mean_diff}");
    }

    /// The workload bootstrap runs through the kernel's fold
    /// (`NodeState::observe`); no `cmp` gate sees it, because every
    /// artifact and claim uses `TrustSource::Exact`. The golden below
    /// was recorded at the last commit where `workload::estimate_trust`
    /// still ran its own per-edge EWMA loop, so it pins the two paths
    /// bit-equal at the default rate: the RNG draw order (requester,
    /// neighbour, transaction) and every `t_ij`, far partners included.
    #[test]
    fn workload_trust_bits_are_pinned() {
        let cfg = RunConfig {
            nodes: 200,
            free_rider_fraction: 0.2,
            trust_source: TrustSource::Workload {
                transactions_per_edge: 30,
            },
            far_partners: 5,
            ..RunConfig::default()
        };
        let s = Scenario::build(cfg).unwrap();
        let checksum = s
            .trust
            .entries()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, (i, j, t)| {
                (acc ^ ((i.0 as u64) << 32 | j.0 as u64) ^ t.get().to_bits())
                    .wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(s.trust.entry_count(), 1794);
        assert_eq!(checksum, 0x8728_4373_078b_aa59);
        // A free rider that served some of the 30 requests, an honest
        // neighbour, and a far partner (exact latent quality).
        for (i, j, bits) in [
            (0u32, 5u32, 0x3f7a_d1e7_83a2_ac34u64),
            (79, 151, 0x3fea_1c81_4954_7b1d),
            (199, 164, 0x3fdf_d526_e951_4870),
        ] {
            let t = s.trust.get(NodeId(i), NodeId(j)).expect("pinned entry");
            assert_eq!(t.get().to_bits(), bits, "t_{{{i},{j}}}");
        }

        // The bootstrap reads the run's own rate: a different rate moves
        // the estimates and nothing else — same draws, same sparsity.
        let slow = Scenario::build(RunConfig {
            ewma_rate: 0.1,
            ..cfg
        })
        .unwrap();
        assert_eq!(slow.graph, s.graph);
        assert_eq!(slow.trust.entry_count(), s.trust.entry_count());
        assert_ne!(slow.trust, s.trust);
    }

    #[test]
    fn system_builds() {
        let s = Scenario::build(RunConfig::with_nodes(50)).unwrap();
        let sys = s.system().unwrap();
        assert_eq!(sys.node_count(), 50);
    }
}
