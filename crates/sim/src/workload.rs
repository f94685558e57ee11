//! Synthetic file-sharing transaction workload.
//!
//! The paper's system model: a heavily loaded network where every peer
//! has pending download requests and serves uploads according to its
//! (latent) decency. Nodes estimate `t_ij` from the outcomes of their
//! direct transactions. The paper does not publish traces, so this module
//! *generates* them: for every directed neighbour pair `(i, j)`,
//! `transactions_per_edge` requests from `i` to `j` are simulated, each
//! served with a quality drawn from `j`'s behaviour profile, and the
//! round loop's own estimate phase (`NodeState::observe`) turns the
//! outcome stream into `t_ij`.
//!
//! It also owns the round-loop *traffic shape*: [`TrafficModel`]
//! describes which requesters are active in a round (uniform or
//! Zipf-skewed activity, periodic flash crowds) and `ActivityPlan`
//! compiles it into per-node activity draws that every engine consults
//! through the shared transact kernel — so the skew is engine-independent
//! by construction, and the default full-traffic model consumes no
//! randomness at all.

use crate::kernel::NodeState;
use dg_core::behavior::Population;
use dg_gossip::node_stream_seed;
use dg_graph::{Graph, NodeId};
use dg_trust::TrustMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Simulate the workload and estimate the trust matrix: each requester's
/// `transactions_per_edge` draws per neighbour go through the round
/// loop's estimate phase (`NodeState::observe` at `ewma_rate`), so a
/// bootstrapped `t_ij` is exactly what a first round of that many
/// admitted requests would have produced.
///
/// Every node ends up with an opinion about each of its neighbours — the
/// sparsity structure the paper assumes (trust only from direct
/// interaction, interactions only along overlay edges).
pub(crate) fn estimate_trust<R: Rng + ?Sized>(
    graph: &Graph,
    population: &Population,
    transactions_per_edge: u32,
    ewma_rate: f64,
    rng: &mut R,
) -> TrustMatrix {
    let rows = graph.nodes().map(|i| {
        let mut state = NodeState::default();
        for &j in graph.neighbours(i) {
            let provider = NodeId(j);
            let behavior = population.behavior(provider);
            state.observe(provider, behavior, transactions_per_edge, ewma_rate, rng);
        }
        state.trust_row()
    });
    TrustMatrix::from_rows(graph.node_count(), rows).expect("graph ids are in range")
}

/// Add *far* interactions: each node additionally rates `partners`
/// uniformly chosen non-neighbour peers at their exact latent quality.
///
/// File-sharing downloads reach beyond overlay neighbours, so the trust
/// matrix is denser than the adjacency; the paper's Section 5.2 analysis
/// (sums over all `i ∈ N`) implicitly assumes such density. Existing
/// opinions are never overwritten.
pub(crate) fn add_far_interactions<R: Rng + ?Sized>(
    graph: &Graph,
    qualities: &[f64],
    partners: usize,
    trust: &mut TrustMatrix,
    rng: &mut R,
) {
    use dg_trust::TrustValue;
    let n = graph.node_count();
    if n < 2 {
        return;
    }
    for i in graph.nodes() {
        let mut added = 0usize;
        let mut attempts = 0usize;
        // Rejection sampling; bounded attempts so dense graphs (complete
        // topology has no non-neighbours) terminate.
        while added < partners && attempts < partners * 20 {
            attempts += 1;
            let j = NodeId(rng.random_range(0..n as u32));
            if j == i || graph.has_edge(i, j) || trust.has_opinion(i, j) {
                continue;
            }
            trust
                .set(i, j, TrustValue::saturating(qualities[j.index()]))
                .expect("sampled id is in range");
            added += 1;
        }
    }
}

/// Round-loop traffic shape: which requesters issue requests each round.
///
/// Real P2P request traffic is heavily skewed — a small set of peers
/// generates most downloads, most peers idle for long stretches, and
/// flash crowds periodically light up a large slice of the network at
/// once. The default model ([`TrafficModel::full`]) is the legacy
/// behaviour: every participating peer requests every round.
///
/// Nodes that sit a round out still *serve* (provider-side admission is
/// unaffected); only their requester side goes quiet, so their trust
/// rows — and everything downstream of them — stay untouched that
/// round. That is the sparsity the incremental engine converts into
/// `O(dirty)` round cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrafficModel {
    /// Mean fraction of nodes that issue requests in a round, before
    /// skew. `1.0` — the default — is the legacy every-node-every-round
    /// workload.
    pub activity_fraction: f64,
    /// Zipf exponent `s` of the per-node request skew: the node ranked
    /// `r` gets activity weight `(r + 1)^-s`, normalised to mean 1
    /// across the network. Ranks are assigned by a fixed seeded
    /// permutation of the node ids — request demand is user behaviour,
    /// not overlay age, and in a PA overlay the earliest ids are the
    /// biggest hubs, so rank-by-id would weld the head of the request
    /// distribution onto the densest neighbourhoods of the graph.
    /// `0.0` — the default — is uniform activity.
    pub zipf_exponent: f64,
    /// Flash-crowd period: on every `flash_interval`-th round the
    /// per-node activity probabilities are multiplied by
    /// [`flash_multiplier`](Self::flash_multiplier) (clamped to 1).
    /// `0` — the default — disables flash crowds.
    pub flash_interval: usize,
    /// Activity multiplier applied on flash rounds.
    pub flash_multiplier: f64,
}

// Manual impl so every absent member falls back to the *legacy* value
// (`TrafficModel::full()`), not the field type's zero — `{}` and older
// configs with no traffic block at all round-trip to full traffic.
impl Deserialize for TrafficModel {
    fn __from_value(v: &serde::__value::Value) -> Result<Self, serde::__value::DeError> {
        #[derive(Deserialize)]
        struct Partial {
            #[serde(default)]
            activity_fraction: Option<f64>,
            #[serde(default)]
            zipf_exponent: Option<f64>,
            #[serde(default)]
            flash_interval: Option<usize>,
            #[serde(default)]
            flash_multiplier: Option<f64>,
        }
        let p = Partial::__from_value(v)?;
        let full = TrafficModel::full();
        Ok(Self {
            activity_fraction: p.activity_fraction.unwrap_or(full.activity_fraction),
            zipf_exponent: p.zipf_exponent.unwrap_or(full.zipf_exponent),
            flash_interval: p.flash_interval.unwrap_or(full.flash_interval),
            flash_multiplier: p.flash_multiplier.unwrap_or(full.flash_multiplier),
        })
    }
}

impl Default for TrafficModel {
    fn default() -> Self {
        Self::full()
    }
}

impl TrafficModel {
    /// The legacy workload: every participating node requests every
    /// round. Consumes no randomness — round results are bit-identical
    /// to engines that predate the traffic model.
    pub const fn full() -> Self {
        Self {
            activity_fraction: 1.0,
            zipf_exponent: 0.0,
            flash_interval: 0,
            flash_multiplier: 1.0,
        }
    }

    /// Builder-style: set the mean activity fraction.
    pub fn with_activity(mut self, fraction: f64) -> Self {
        self.activity_fraction = fraction;
        self
    }

    /// Builder-style: set the Zipf skew exponent.
    pub fn with_zipf(mut self, exponent: f64) -> Self {
        self.zipf_exponent = exponent;
        self
    }

    /// Builder-style: flash crowds every `interval` rounds at
    /// `multiplier` × the base activity.
    pub fn with_flash(mut self, interval: usize, multiplier: f64) -> Self {
        self.flash_interval = interval;
        self.flash_multiplier = multiplier;
        self
    }

    /// Whether this model gates anything at all. A full model skips the
    /// activity draw entirely (zero overhead, bit-identical legacy
    /// rounds).
    pub fn is_full(&self) -> bool {
        self.activity_fraction >= 1.0
            && self.zipf_exponent == 0.0
            && (self.flash_interval == 0 || self.flash_multiplier >= 1.0)
    }
}

/// Domain-separation salt for activity draws, so a node's activity coin
/// is independent of its transact stream ([`node_stream_seed`] on the
/// raw round seed) and of the adversary streams.
const ACTIVITY_SALT: u64 = 0x7C15_62E1_9B52_ACE1;

/// Domain-separation salt for the Zipf rank permutation (a property of
/// the compiled plan, not of any round's randomness).
const RANK_SALT: u64 = 0x3A1D_77F0_C4B9_5E23;

/// The activity gate's integer threshold for probability `p`: a node
/// whose 53-bit draw `d` (one SplitMix64 output, `>> 11`) satisfies
/// `d < activity_threshold(p)` is active. `d · 2⁻⁵³` and `p · 2⁵³` are
/// both exact in `f64`, so `d · 2⁻⁵³ < p ⇔ d < p · 2⁵³ ⇔ d < ⌈p · 2⁵³⌉`
/// — the same predicate as comparing the draw mapped to `[0, 1)` with
/// `p`, without the per-draw float work. `p ≥ 1` admits every draw,
/// `p ≤ 0` (and `NaN`) none.
fn activity_threshold(p: f64) -> u64 {
    const DRAWS: f64 = (1u64 << 53) as f64;
    // Saturating float → int: NaN and negatives land on 0.
    (p.clamp(0.0, 1.0) * DRAWS).ceil() as u64
}

/// A [`TrafficModel`] compiled against a network size: per-node gate
/// thresholds, ready for `O(1)` engine-independent activity draws.
///
/// The draw for `(node, round)` hashes the round seed and node id
/// through a dedicated salted stream — it depends on nothing an engine
/// chooses (thread count, shard count, evaluation order), which is what
/// keeps all engines bit-identical under any traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActivityPlan {
    /// `quiet[i]` — node `i`'s [`activity_threshold`] on an ordinary
    /// round; `None` for the full model (everyone always active).
    quiet: Option<Vec<u64>>,
    /// The thresholds of a flash round (base probability × the flash
    /// multiplier, clamped); `None` when the model has no flash crowds.
    flash: Option<Vec<u64>>,
    model: TrafficModel,
}

impl ActivityPlan {
    /// Compile a model for an `n`-node network.
    pub fn new(model: TrafficModel, n: usize) -> Self {
        if model.is_full() {
            return Self {
                quiet: None,
                flash: None,
                model,
            };
        }
        let fraction = model.activity_fraction.max(0.0);
        // Request rank per node: identity for uniform activity, a fixed
        // seeded Fisher–Yates permutation under skew (see the
        // `zipf_exponent` field docs — rank must not correlate with
        // overlay age). Deterministic in `n` alone, so every engine
        // compiles the identical plan.
        let rank: Vec<usize> = if model.zipf_exponent == 0.0 {
            (0..n).collect()
        } else {
            let mut rank: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let draw = node_stream_seed(RANK_SALT, i as u32);
                rank.swap(i, (draw % (i as u64 + 1)) as usize);
            }
            rank
        };
        let weights: Vec<f64> = rank
            .iter()
            .map(|&r| ((r + 1) as f64).powf(-model.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let scale = if total > 0.0 { n as f64 / total } else { 0.0 };
        let thresholds = |multiplier: f64| -> Vec<u64> {
            weights
                .iter()
                .map(|w| activity_threshold(fraction * w * scale * multiplier))
                .collect()
        };
        Self {
            quiet: Some(thresholds(1.0)),
            flash: (model.flash_interval > 0).then(|| thresholds(model.flash_multiplier)),
            model,
        }
    }

    /// Whether this round is a flash-crowd round.
    pub(crate) fn is_flash_round(&self, round: u64) -> bool {
        self.model.flash_interval > 0 && (round + 1) % self.model.flash_interval as u64 == 0
    }

    /// This round's per-node thresholds (`None`: the full model).
    fn thresholds(&self, round: u64) -> Option<&[u64]> {
        match &self.flash {
            Some(flash) if self.is_flash_round(round) => Some(flash),
            _ => self.quiet.as_deref(),
        }
    }

    /// Whether `node` issues requests this round. Deterministic in
    /// `(node, round_seed)` alone; the full model answers `true` without
    /// drawing. The one-by-one oracle the tests hold the range sweep to.
    #[cfg(test)]
    pub(crate) fn is_active(&self, node: NodeId, round: u64, round_seed: u64) -> bool {
        self.active_in(node.0..node.0 + 1, round, round_seed)
            .next()
            .is_some()
    }

    /// The nodes of `range` that issue requests this round, ascending —
    /// the one activity gate every engine sweeps. A node is active when
    /// its draw (one SplitMix64 output of a dedicated salted stream, top
    /// 53 bits — no stream object needed for a single coin) is below its
    /// threshold.
    pub(crate) fn active_in(
        &self,
        range: std::ops::Range<u32>,
        round: u64,
        round_seed: u64,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let thresholds = self.thresholds(round);
        let stream = round_seed ^ ACTIVITY_SALT;
        range
            .filter(move |&node| {
                thresholds.map_or(true, |t| {
                    node_stream_seed(stream, node) >> 11 < t[node as usize]
                })
            })
            .map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_core::behavior::Behavior;
    use dg_graph::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The activity gate as it was first written: the clamped
    /// probability short-circuits at the ends, otherwise the draw's top
    /// 53 bits mapped to `[0, 1)` are compared with it in floating point.
    fn float_gate(p: f64, draw: u64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    proptest! {
        /// `draw >> 11 < activity_threshold(p)` is the float gate for
        /// every probability — the ends, subnormals, products of a base
        /// and a flash multiplier (clamped or not), arbitrary bit
        /// patterns — at random draws and at the three draws around the
        /// threshold itself.
        #[test]
        fn integer_gate_equals_the_float_compare(
            kind in 0u8..6,
            unit in 0.0..1.0f64,
            multiplier in 0.0..16.0f64,
            bits in 0u64..u64::MAX,
            raw in proptest::num::f64::ANY,
            draw in 0u64..u64::MAX,
        ) {
            let p = match kind {
                0 => 0.0,
                1 => 1.0,
                2 => f64::from_bits(bits >> 12), // subnormal
                3 => unit * multiplier,
                4 => raw,
                _ => unit,
            };
            let threshold = activity_threshold(p);
            prop_assert!(threshold <= 1 << 53);
            let around = [threshold.saturating_sub(1), threshold, threshold + 1];
            let draws = around
                .iter()
                .filter(|&&d| d < 1 << 53)
                .map(|&d| d << 11 | (bits & 0x7FF))
                .chain([draw, 0, u64::MAX]);
            for draw in draws {
                prop_assert_eq!(
                    draw >> 11 < threshold,
                    float_gate(p, draw),
                    "p = {:e}, draw = {:#x}",
                    p,
                    draw
                );
            }
        }
    }

    #[test]
    fn sweep_and_single_node_gate_agree_on_quiet_and_flash_rounds() {
        // Zipf-skewed thresholds and a flash multiplier large enough to
        // clamp the head: on both kinds of round the range sweep yields
        // exactly the nodes `is_active` admits one by one.
        let n = 300usize;
        let model = TrafficModel::full()
            .with_activity(0.05)
            .with_zipf(1.0)
            .with_flash(4, 30.0);
        let plan = ActivityPlan::new(model, n);
        let (quiet, flash) = (plan.thresholds(0).unwrap(), plan.thresholds(3).unwrap());
        assert!(quiet.iter().zip(flash).all(|(q, f)| q <= f));
        let clamped = |t: &[u64]| t.iter().filter(|&&t| t == 1 << 53).count();
        assert!(
            clamped(flash) > clamped(quiet),
            "the flash crowd clamps more of the head"
        );
        for round in [0u64, 3] {
            for seed in 0..20u64 {
                let swept: Vec<NodeId> = plan.active_in(0..n as u32, round, seed).collect();
                let one_by_one: Vec<NodeId> = (0..n as u32)
                    .map(NodeId)
                    .filter(|&i| plan.is_active(i, round, seed))
                    .collect();
                assert_eq!(swept, one_by_one);
                // A sub-range sweep is the matching slice of the whole.
                let middle: Vec<NodeId> = plan.active_in(100..200, round, seed).collect();
                let expected: Vec<NodeId> = swept
                    .iter()
                    .copied()
                    .filter(|i| (100..200).contains(&i.0))
                    .collect();
                assert_eq!(middle, expected);
            }
        }
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn estimates_track_behaviour() {
        let g = generators::complete(3);
        let pop = Population::new(vec![
            Behavior::Honest { quality: 0.9 },
            Behavior::FreeRider {
                serve_probability: 0.0,
            },
            Behavior::Honest { quality: 0.5 },
        ]);
        let trust = estimate_trust(&g, &pop, 50, 0.3, &mut rng(1));
        // Everyone judges node 0 high, node 1 at zero.
        for i in [1u32, 2] {
            let t0 = trust.get(NodeId(i), NodeId(0)).unwrap().get();
            assert!(t0 > 0.7, "t_{{{i},0}} = {t0}");
        }
        for i in [0u32, 2] {
            let t1 = trust.get(NodeId(i), NodeId(1)).unwrap().get();
            assert!(t1 < 0.05, "t_{{{i},1}} = {t1}");
        }
    }

    #[test]
    fn opinions_only_about_neighbours() {
        let g = generators::ring(6).unwrap();
        let pop = Population::honest_uniform(6, 0.5, 0.9, &mut rng(2));
        let trust = estimate_trust(&g, &pop, 10, 0.3, &mut rng(3));
        assert_eq!(trust.entry_count(), 12); // 6 edges × 2 directions
        assert!(trust.get(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn full_traffic_model_is_always_active() {
        let plan = ActivityPlan::new(TrafficModel::full(), 64);
        for node in 0..64u32 {
            for round in 0..8u64 {
                assert!(plan.is_active(NodeId(node), round, 0xDEAD_BEEF ^ round));
            }
        }
        assert!(TrafficModel::full().is_full());
        // A flash crowd on top of full traffic gates nothing either.
        assert!(TrafficModel::full().with_flash(3, 2.0).is_full());
    }

    #[test]
    fn activity_fraction_thins_traffic() {
        let n = 4000usize;
        let plan = ActivityPlan::new(TrafficModel::full().with_activity(0.1), n);
        let active = (0..n as u32)
            .filter(|&i| plan.is_active(NodeId(i), 0, 987654321))
            .count();
        let fraction = active as f64 / n as f64;
        assert!(
            (fraction - 0.1).abs() < 0.03,
            "active fraction {fraction} far from 0.1"
        );
        // Deterministic in (node, round seed): same seed, same set.
        let again = (0..n as u32)
            .filter(|&i| plan.is_active(NodeId(i), 0, 987654321))
            .count();
        assert_eq!(active, again);
    }

    #[test]
    fn zipf_skew_concentrates_activity_off_the_id_order() {
        let n = 2000usize;
        let plan = ActivityPlan::new(TrafficModel::full().with_activity(0.05).with_zipf(1.0), n);
        // Per-node activation counts over many rounds' worth of seeds.
        let mut counts = vec![0usize; n];
        let mut total = 0usize;
        for seed in 0..40u64 {
            for i in 0..n as u32 {
                if plan.is_active(NodeId(i), 0, 11_000 + seed) {
                    counts[i as usize] += 1;
                    total += 1;
                }
            }
        }
        // Zipf s = 1: the head decile of the *rank* order carries most
        // of the traffic…
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let head_by_rank: usize = sorted[..n / 10].iter().sum();
        assert!(
            head_by_rank * 2 > total,
            "rank head {head_by_rank} not dominating total {total}"
        );
        // …but the permutation decorrelates rank from id: the lowest
        // ids (a PA overlay's hubs) hold nothing like that share.
        let head_by_id: usize = counts[..n / 10].iter().sum();
        assert!(
            head_by_id * 3 < total,
            "id head {head_by_id} should be an ordinary slice of {total}"
        );
    }

    #[test]
    fn flash_rounds_multiply_activity() {
        let n = 4000usize;
        let plan = ActivityPlan::new(
            TrafficModel::full().with_activity(0.05).with_flash(4, 8.0),
            n,
        );
        assert!(!plan.is_flash_round(0));
        assert!(plan.is_flash_round(3)); // rounds are 0-based: 4th round
        let active_at = |round: u64| {
            (0..n as u32)
                .filter(|&i| plan.is_active(NodeId(i), round, 5150))
                .count()
        };
        let quiet = active_at(0);
        let flash = active_at(3);
        assert!(
            flash > 4 * quiet.max(1),
            "flash round {flash} vs quiet {quiet}"
        );
    }
}
