//! The four aggregation algorithm variants of Section 4.1.2.
//!
//! All four share the differential gossip diffusion core; they differ in
//! *what* is gossiped and *how* the result is post-processed:
//!
//! * [`alg1`] — global reputation of a single subject: opinion holders
//!   start with gossip pair `(t_ij, 1)`, everyone else `(0, 0)`; the
//!   converged ratio is the mean direct opinion.
//! * [`alg2`] — globally calibrated local reputation of a single subject:
//!   one designated node carries gossip weight 1 (so the ratio converges
//!   to the *sum* of opinions) and an extra `count` mass recovers `N_d`;
//!   each node then blends in its neighbours' directly-reported feedback
//!   via Eq. (6).
//! * [`alg3`] — Variation 3: Algorithm 1 for every subject at once,
//!   pushing gossip trios `(subject, y, g)` as one vector message.
//! * [`alg4`] — Variation 4: Algorithm 2 for every subject at once.

use crate::error::CoreError;
use crate::reputation::ReputationSystem;
use dg_gossip::vector::{GossipVector, VectorEntry, VectorGossip};
use dg_gossip::{GossipConfig, GossipPair};
use dg_graph::NodeId;
use rand::Rng;
use std::collections::BTreeMap;

/// Outcome of a single-subject aggregation (Algorithms 1 and 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleOutcome {
    /// Per-node reputation estimate of the subject (clamped to `[0, 1]`;
    /// `None` where the node ended without gossip mass — only possible in
    /// non-converged runs).
    pub estimates: Vec<Option<f64>>,
    /// Gossip steps executed.
    pub steps: usize,
    /// Whether the run reached protocol quiescence.
    pub converged: bool,
    /// Messages per node per step (Table 2's statistic).
    pub messages_per_node_per_step: f64,
    /// Total messages sent.
    pub total_messages: u64,
}

/// Outcome of an all-subjects aggregation (Variations 3 and 4).
#[derive(Debug, Clone, PartialEq)]
pub struct FullOutcome {
    /// `estimates[i]` maps subject id → reputation estimate at node `i`.
    pub estimates: Vec<BTreeMap<u32, f64>>,
    /// Gossip steps executed.
    pub steps: usize,
    /// Whether the run reached protocol quiescence.
    pub converged: bool,
    /// Vector messages per node per step.
    pub messages_per_node_per_step: f64,
    /// Total trio entries shipped (communication complexity).
    pub entries_sent: u64,
}

impl FullOutcome {
    /// Estimate of `subject` at `node`.
    pub fn estimate(&self, node: NodeId, subject: NodeId) -> Option<f64> {
        self.estimates[node.index()].get(&subject.0).copied()
    }
}

/// Algorithm 1: global reputation aggregation for a single subject.
pub mod alg1 {
    use super::*;

    /// Run Algorithm 1 for `subject`.
    pub fn run<R: Rng + ?Sized>(
        system: &ReputationSystem<'_>,
        subject: NodeId,
        config: GossipConfig,
        rng: &mut R,
    ) -> Result<SingleOutcome, CoreError> {
        let n = system.node_count();
        let mut initial = vec![GossipPair::ZERO; n];
        for (i, t) in system.trust().column(subject) {
            initial[i.index()] = GossipPair::originator(t.get());
        }
        let out = VectorGossip::one_subject(system.graph(), config, initial)?.run(rng);
        let estimates = (0..n)
            .map(|i| {
                let mut run = out.vector(NodeId(i as u32));
                let pair = run.find(|&(j, e)| j == 0 && e.weight > 0.0);
                pair.map(|(_, e)| e.ratio().clamp(0.0, 1.0))
            })
            .collect();
        Ok(SingleOutcome {
            estimates,
            steps: out.steps,
            converged: out.converged,
            messages_per_node_per_step: out.stats.per_node_per_step(),
            total_messages: out.stats.total(),
        })
    }
}

/// Algorithm 2: globally calibrated local reputation for a single subject.
pub mod alg2 {
    use super::*;

    /// Run Algorithm 2 for `subject`.
    ///
    /// The paper designates "node 1" as the unit-weight originator; we use
    /// the lowest-id opinion holder (falling back to node 0 when nobody
    /// has interacted with the subject, in which case every estimate is
    /// the neighbour-only blend).
    pub fn run<R: Rng + ?Sized>(
        system: &ReputationSystem<'_>,
        subject: NodeId,
        config: GossipConfig,
        rng: &mut R,
    ) -> Result<SingleOutcome, CoreError> {
        let n = system.node_count();
        let column = system.trust().column(subject);
        let originator = column.first().map(|&(i, _)| i).unwrap_or(NodeId(0));

        // Single-subject vector gossip: the `count` channel rides along.
        let mut initial = vec![GossipVector::new(); n];
        for &(i, t) in &column {
            let entry = if i == originator {
                VectorEntry::originator(t.get())
            } else {
                VectorEntry::passive(t.get())
            };
            initial[i.index()].insert(subject.0, entry);
        }
        if column.is_empty() {
            // Still need one unit of gossip weight so ratios are defined.
            initial[originator.index()].insert(
                subject.0,
                VectorEntry {
                    value: 0.0,
                    weight: 1.0,
                    count: 0.0,
                },
            );
        }

        let out = VectorGossip::new(system.graph(), config, initial)?.run(rng);

        let estimates = (0..n)
            .map(|i| {
                let observer = NodeId(i as u32);
                let sum = out.estimate(observer, subject)?;
                let count = out.count_estimate(observer, subject)?;
                // Blend the gossiped `(Σ t, N_d)` with the neighbours'
                // direct reports per Eq. (6) / Algorithm 2's output line,
                // `Rep_Ij = (ŷ_Ij + Y) / (Σ(w−1) + Count)`; the observer's
                // trust row is read once, for `ŷ` and the excess alike.
                let weights: Vec<f64> = system.excess_weights(observer).collect();
                let y_hat = system.y_hat_from_weights(observer, &weights, subject);
                let rep = system.gclr_from_y_hat(y_hat, sum, count, weights.iter().sum());
                Some(rep.unwrap_or(0.0))
            })
            .collect();
        Ok(SingleOutcome {
            estimates,
            steps: out.steps,
            converged: out.converged,
            messages_per_node_per_step: out.stats.per_node_per_step(),
            total_messages: out.stats.total(),
        })
    }
}

/// Variation 3: simultaneous global reputation for all subjects.
pub mod alg3 {
    use super::*;

    /// Run Variation 3: every node pushes its full feedback vector, every
    /// opinion holder carries gossip weight 1 per subject.
    pub fn run<R: Rng + ?Sized>(
        system: &ReputationSystem<'_>,
        config: GossipConfig,
        rng: &mut R,
    ) -> Result<FullOutcome, CoreError> {
        let n = system.node_count();
        let mut initial = vec![GossipVector::new(); n];
        for (i, j, t) in system.trust().entries() {
            initial[i.index()].insert(j.0, VectorEntry::originator(t.get()));
        }
        let out = VectorGossip::new(system.graph(), config, initial)?.run(rng);
        let estimates = (0..n)
            .map(|i| {
                out.vector(NodeId(i as u32))
                    .filter(|(_, e)| e.weight > 0.0)
                    .map(|(j, e)| (j, e.ratio().clamp(0.0, 1.0)))
                    .collect()
            })
            .collect();
        Ok(FullOutcome {
            estimates,
            steps: out.steps,
            converged: out.converged,
            messages_per_node_per_step: out.stats.per_node_per_step(),
            entries_sent: out.entries_sent,
        })
    }
}

/// Variation 4: simultaneous globally calibrated local reputation for all
/// subjects.
pub mod alg4 {
    use super::*;

    /// Run Variation 4: per subject, the lowest-id opinion holder carries
    /// the unit gossip weight; counts ride along; each node finishes by
    /// blending its neighbours' direct reports per Eq. (6).
    pub fn run<R: Rng + ?Sized>(
        system: &ReputationSystem<'_>,
        config: GossipConfig,
        rng: &mut R,
    ) -> Result<FullOutcome, CoreError> {
        let n = system.node_count();
        // Lowest-id opinion holder per subject (entries() is row-major,
        // i.e. ascending observer id).
        let mut originator: BTreeMap<u32, u32> = BTreeMap::new();
        for (i, j, _) in system.trust().entries() {
            originator.entry(j.0).or_insert(i.0);
        }
        let mut initial = vec![GossipVector::new(); n];
        for (i, j, t) in system.trust().entries() {
            let entry = if originator[&j.0] == i.0 {
                VectorEntry::originator(t.get())
            } else {
                VectorEntry::passive(t.get())
            };
            initial[i.index()].insert(j.0, entry);
        }
        let out = VectorGossip::new(system.graph(), config, initial)?.run(rng);

        let estimates = (0..n)
            .map(|i| {
                // Eq. (6) as in `alg2`; the observer's excess weights
                // do not depend on the subject.
                let observer = NodeId(i as u32);
                let weights: Vec<f64> = system.excess_weights(observer).collect();
                let excess = weights.iter().sum();
                out.vector(observer)
                    .filter(|(_, e)| e.weight > 0.0)
                    .map(|(j, e)| {
                        let y_hat = system.y_hat_from_weights(observer, &weights, NodeId(j));
                        let count = e.count_estimate().unwrap_or(0.0);
                        let rep = system.gclr_from_y_hat(y_hat, e.ratio(), count, excess);
                        (j, rep.unwrap_or(0.0))
                    })
                    .collect()
            })
            .collect();
        Ok(FullOutcome {
            estimates,
            steps: out.steps,
            converged: out.converged,
            messages_per_node_per_step: out.stats.per_node_per_step(),
            entries_sent: out.entries_sent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reputation::trust_from_qualities;
    use dg_graph::{generators, pa};
    use dg_trust::{TrustMatrix, TrustValue, WeightParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    fn config() -> GossipConfig {
        GossipConfig::differential(1e-9).unwrap()
    }

    #[test]
    fn alg1_converges_to_mean_opinion() {
        let g = generators::complete(15);
        let mut m = TrustMatrix::new(15);
        m.set(NodeId(2), NodeId(7), tv(0.9)).unwrap();
        m.set(NodeId(4), NodeId(7), tv(0.5)).unwrap();
        m.set(NodeId(9), NodeId(7), tv(0.1)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::default()).unwrap();
        let out = alg1::run(&s, NodeId(7), config(), &mut rng(1)).unwrap();
        assert!(out.converged);
        let expected = s.global_reputation(NodeId(7)).unwrap();
        for (i, est) in out.estimates.iter().enumerate() {
            let est = est.expect("converged run has mass everywhere");
            assert!(
                (est - expected).abs() < 1e-3,
                "node {i}: {est} vs {expected}"
            );
        }
    }

    #[test]
    fn alg2_converges_to_closed_form_gclr() {
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 40, m: 2 }, &mut rng(2)).unwrap();
        let qualities: Vec<f64> = (0..40)
            .map(|i| 0.2 + 0.6 * ((i % 7) as f64 / 6.0))
            .collect();
        let m = trust_from_qualities(&g, &qualities);
        let s = ReputationSystem::new(&g, m, WeightParams::new(2.0, 2.0).unwrap()).unwrap();
        let subject = NodeId(5);
        let out = alg2::run(&s, subject, config(), &mut rng(3)).unwrap();
        assert!(out.converged);
        for i in 0..40u32 {
            let observer = NodeId(i);
            let est = out.estimates[i as usize].expect("mass everywhere");
            let reference = s.gclr(observer, subject).unwrap();
            assert!(
                (est - reference).abs() < 5e-3,
                "observer {i}: gossip {est} vs closed form {reference}"
            );
        }
    }

    #[test]
    fn alg2_unknown_subject_gives_neighbour_only_blend() {
        let g = generators::complete(6);
        let m = TrustMatrix::new(6); // nobody knows anybody
        let s = ReputationSystem::new(&g, m, WeightParams::default()).unwrap();
        let out = alg2::run(&s, NodeId(3), config(), &mut rng(4)).unwrap();
        assert!(out.converged);
        for est in out.estimates.iter().flatten() {
            assert_eq!(*est, 0.0);
        }
    }

    #[test]
    fn alg3_matches_per_subject_means() {
        let g = generators::complete(10);
        let mut m = TrustMatrix::new(10);
        m.set(NodeId(0), NodeId(4), tv(0.9)).unwrap();
        m.set(NodeId(1), NodeId(4), tv(0.3)).unwrap();
        m.set(NodeId(2), NodeId(8), tv(0.7)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::default()).unwrap();
        let out = alg3::run(&s, config(), &mut rng(5)).unwrap();
        assert!(out.converged);
        for i in 0..10u32 {
            let e4 = out.estimate(NodeId(i), NodeId(4)).unwrap();
            let e8 = out.estimate(NodeId(i), NodeId(8)).unwrap();
            assert!((e4 - 0.6).abs() < 1e-3, "node {i}: {e4}");
            assert!((e8 - 0.7).abs() < 1e-3, "node {i}: {e8}");
        }
    }

    #[test]
    fn alg4_matches_closed_form_matrix() {
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 30, m: 2 }, &mut rng(6)).unwrap();
        let qualities: Vec<f64> = (0..30)
            .map(|i| 0.1 + 0.8 * ((i % 5) as f64 / 4.0))
            .collect();
        let m = trust_from_qualities(&g, &qualities);
        let s = ReputationSystem::new(&g, m, WeightParams::new(2.0, 2.0).unwrap()).unwrap();
        let out = alg4::run(&s, config(), &mut rng(7)).unwrap();
        assert!(out.converged);
        let mut checked = 0;
        for i in 0..30u32 {
            let observer = NodeId(i);
            for (&j, &est) in &out.estimates[i as usize] {
                let reference = s.gclr(observer, NodeId(j)).unwrap();
                assert!(
                    (est - reference).abs() < 2e-2,
                    "({i}, {j}): gossip {est} vs closed form {reference}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} estimates checked");
    }

    #[test]
    fn alg4_with_neutral_weights_equals_alg3() {
        let g = generators::complete(12);
        let mut m = TrustMatrix::new(12);
        m.set(NodeId(0), NodeId(3), tv(0.8)).unwrap();
        m.set(NodeId(1), NodeId(3), tv(0.4)).unwrap();
        m.set(NodeId(5), NodeId(9), tv(0.6)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::neutral()).unwrap();
        let v3 = alg3::run(&s, config(), &mut rng(8)).unwrap();
        let v4 = alg4::run(&s, config(), &mut rng(9)).unwrap();
        assert!(v3.converged && v4.converged);
        for i in 0..12u32 {
            for j in [3u32, 9] {
                let a = v3.estimate(NodeId(i), NodeId(j)).unwrap();
                let b = v4.estimate(NodeId(i), NodeId(j)).unwrap();
                assert!((a - b).abs() < 1e-2, "({i}, {j}): v3 {a} vs v4 {b}");
            }
        }
    }

    fn fnv(fold: u64, word: u64) -> u64 {
        (fold ^ word).wrapping_mul(0x0100_0000_01b3)
    }

    /// `(steps, FNV fold of the message counts and every estimate's bits)`
    /// of a single-subject run; an estimate of `None` folds as `u64::MAX`.
    fn single_pin(out: &SingleOutcome) -> (usize, u64) {
        let mut fold = fnv(0xcbf2_9ce4_8422_2325, out.total_messages);
        fold = fnv(fold, out.messages_per_node_per_step.to_bits());
        fold = fnv(fold, u64::from(out.converged));
        for est in &out.estimates {
            fold = fnv(fold, est.map_or(u64::MAX, f64::to_bits));
        }
        (out.steps, fold)
    }

    /// `(steps, entries_sent, FNV fold of the message rate and every
    /// (node, subject, estimate bits))` of an all-subjects run.
    fn full_pin(out: &FullOutcome) -> (usize, u64, u64) {
        let mut fold = fnv(
            0xcbf2_9ce4_8422_2325,
            out.messages_per_node_per_step.to_bits(),
        );
        fold = fnv(fold, u64::from(out.converged));
        for (i, row) in out.estimates.iter().enumerate() {
            for (&j, est) in row {
                fold = fnv(fold, (i as u64) << 32 | u64::from(j));
                fold = fnv(fold, est.to_bits());
            }
        }
        (out.steps, out.entries_sent, fold)
    }

    /// Whole alg1–alg4 outcomes on one seeded 200-node PA system whose
    /// nodes rate their neighbours among the first 40 ids. alg3 and alg4
    /// start each node on its own few ratings and end with all 40
    /// subjects, so their runs grow step after step.
    #[test]
    fn whole_algorithm_runs_are_pinned() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 200, m: 2 }, &mut rng(21)).unwrap();
        let quality = |w: u32| 0.1 + 0.8 * (f64::from((w * 37) % 23) / 22.0);
        let rows = g.nodes().map(|v| {
            let rated = g.neighbours(v).iter().filter(|&&w| w < 40);
            rated.map(|&w| (NodeId(w), TrustValue::new(quality(w)).unwrap()))
        });
        let m = TrustMatrix::from_rows(200, rows).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::new(2.0, 2.0).unwrap()).unwrap();
        let plain = GossipConfig::differential(1e-6).unwrap();
        let lossy = plain.with_loss(dg_gossip::loss::LossModel::new(0.2).unwrap());

        let alg1 = single_pin(&alg1::run(&s, NodeId(7), plain, &mut rng(22)).unwrap());
        let alg2 = single_pin(&alg2::run(&s, NodeId(7), plain, &mut rng(23)).unwrap());
        let alg2_lossy = single_pin(&alg2::run(&s, NodeId(0), lossy, &mut rng(24)).unwrap());
        let alg3 = full_pin(&alg3::run(&s, plain, &mut rng(25)).unwrap());
        let alg4 = full_pin(&alg4::run(&s, plain, &mut rng(26)).unwrap());
        let alg4_lossy = full_pin(&alg4::run(&s, lossy, &mut rng(27)).unwrap());

        assert_eq!(alg1, (19, 0x1f49_9123_f14c_13c8));
        assert_eq!(alg2, (119, 0x420a_e8ca_04bb_f0d1));
        assert_eq!(alg2_lossy, (137, 0x8846_ed10_7290_af27));
        assert_eq!(alg3, (26, 75_672, 0xa08d_1ba7_136d_1608));
        assert_eq!(alg4, (165, 1_255_467, 0x7d61_3a0e_4bce_59b1));
        assert_eq!(alg4_lossy, (224, 1_562_591, 0xd2de_1760_dad0_2664));
    }

    #[test]
    fn outcome_metrics_are_populated() {
        let g = generators::complete(8);
        let mut m = TrustMatrix::new(8);
        m.set(NodeId(1), NodeId(2), tv(0.5)).unwrap();
        m.set(NodeId(3), NodeId(2), tv(0.9)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::default()).unwrap();
        let out = alg1::run(&s, NodeId(2), config(), &mut rng(10)).unwrap();
        assert!(out.steps > 0);
        assert!(out.total_messages > 0);
        assert!(out.messages_per_node_per_step > 0.0);
    }
}
