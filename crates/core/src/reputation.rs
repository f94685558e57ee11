//! The [`ReputationSystem`] facade and the closed-form reference
//! evaluations of Eqs. (1), (4) and (6).
//!
//! Gossip converges to well-defined network-wide quantities; this module
//! computes them directly from the trust matrix so that (a) tests can
//! verify every gossip algorithm against its analytical limit and (b) the
//! large collusion sweeps can evaluate thousands of observer/subject
//! pairs without re-running gossip for each.
//!
//! Conventions (matching the gossip semantics, see `docs/PAPER_MAP.md`,
//! "Equations"):
//!
//! * the **global reputation** of subject `j` is the mean of the direct
//!   opinions over the `N_d` nodes that hold one (the value Algorithm 1's
//!   push-sum converges to: `Σᵢ y_ij / Σᵢ g_ij`);
//! * the **globally calibrated local reputation** of `j` at observer `I`
//!   follows Eq. (6) with the gossiped count:
//!   `Rep_Ij = (Σ_{k∈NS_I}(w_Ik−1)·t_kj + Σᵢ t_ij) / (Σ_{k∈NS_I}(w_Ik−1) + N_d)`.

use crate::error::CoreError;
use dg_graph::{Graph, NodeId};
use dg_trust::{TrustMatrix, TrustValue, WeightParams};

/// Bundles a topology, the direct-interaction trust matrix and the weight
/// law, and exposes both the gossip algorithms (via
/// [`crate::algorithms`]) and their closed-form limits.
#[derive(Debug, Clone)]
pub struct ReputationSystem<'g> {
    graph: &'g Graph,
    trust: TrustMatrix,
    weights: WeightParams,
}

impl<'g> ReputationSystem<'g> {
    /// Create a system; the trust matrix dimension must match the graph.
    pub fn new(
        graph: &'g Graph,
        trust: TrustMatrix,
        weights: WeightParams,
    ) -> Result<Self, CoreError> {
        if trust.node_count() != graph.node_count() {
            return Err(CoreError::DimensionMismatch {
                matrix: trust.node_count(),
                graph: graph.node_count(),
            });
        }
        Ok(Self {
            graph,
            trust,
            weights,
        })
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The direct-interaction trust matrix.
    pub fn trust(&self) -> &TrustMatrix {
        &self.trust
    }

    /// Mutable trust matrix (workloads update it between gossip rounds).
    pub fn trust_mut(&mut self) -> &mut TrustMatrix {
        &mut self.trust
    }

    /// Consume the system and hand the trust matrix back. Round engines
    /// that keep the matrix alive across rounds (the incremental delta
    /// path) construct a system per aggregation phase and recover their
    /// persistent storage here instead of cloning it.
    pub fn into_trust(self) -> TrustMatrix {
        self.trust
    }

    /// The weight law.
    pub fn weights(&self) -> WeightParams {
        self.weights
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// `w_Ik` — the weight observer `I` gives to node `k`'s opinion,
    /// from `I`'s direct trust in `k` (1 for strangers).
    pub fn weight_of(&self, observer: NodeId, k: NodeId) -> f64 {
        self.weights.weight(self.trust.get_or_zero(observer, k))
    }

    /// `Σ_{k ∈ NS_I} (w_Ik − 1)` — the total excess weight observer `I`
    /// grants its neighbourhood (the denominator correction of Eq. (6)).
    pub fn neighbour_excess_sum(&self, observer: NodeId) -> f64 {
        self.excess_weights(observer).sum()
    }

    /// The excess weights `(w_Ik − 1)` of `observer`, one per neighbour
    /// in adjacency order — the single definition behind
    /// [`neighbour_excess_sum`](Self::neighbour_excess_sum) and
    /// [`neighbour_excess_weights`](Self::neighbour_excess_weights), for
    /// callers that write them into storage of their own.
    pub fn excess_weights(&self, observer: NodeId) -> impl Iterator<Item = f64> + '_ {
        self.graph
            .neighbours(observer)
            .iter()
            .map(move |&k| self.weight_of(observer, NodeId(k)) - 1.0)
    }

    /// The per-neighbour excess weights `(w_Ik − 1)` of `observer`, in
    /// neighbour order — the amortisable half of every [`y_hat`](Self::y_hat)
    /// evaluation. Batch aggregation computes this once per observer
    /// (instead of re-reading the observer's trust row for every
    /// (subject, neighbour) pair) and feeds it to
    /// [`gclr_from_parts_weighted`](Self::gclr_from_parts_weighted);
    /// summing the returned vector reproduces
    /// [`neighbour_excess_sum`](Self::neighbour_excess_sum) bit-for-bit
    /// (same iteration order, same additions).
    pub fn neighbour_excess_weights(&self, observer: NodeId) -> Vec<f64> {
        self.excess_weights(observer).collect()
    }

    /// `ŷ_Ij = Σ_{k ∈ NS_I} (w_Ik − 1) · t_kj` — the weighted excess of
    /// the neighbours' direct reports about `j` (Algorithm 2). Neighbours
    /// without an opinion report the anti-whitewash default 0.
    pub fn y_hat(&self, observer: NodeId, subject: NodeId) -> f64 {
        self.graph
            .neighbours(observer)
            .iter()
            .map(|&k| {
                let k = NodeId(k);
                (self.weight_of(observer, k) - 1.0) * self.trust.get_or_zero(k, subject).get()
            })
            .sum()
    }

    /// Closed form of Algorithm 1's limit: the mean direct opinion about
    /// `j` over its `N_d` opinion holders. `None` when nobody has
    /// interacted with `j`.
    pub fn global_reputation(&self, subject: NodeId) -> Option<f64> {
        self.trust.mean_opinion(subject)
    }

    /// Closed form of Algorithm 2's limit (Eq. (6) with the gossiped
    /// count): the globally calibrated local reputation of `subject` at
    /// `observer`.
    ///
    /// Returns `None` when the denominator is zero (no opinions anywhere
    /// and no weighted neighbourhood).
    pub fn gclr(&self, observer: NodeId, subject: NodeId) -> Option<f64> {
        self.gclr_from_parts(
            observer,
            subject,
            self.trust.opinion_sum(subject),
            self.trust.opinion_count(subject) as f64,
            self.neighbour_excess_sum(observer),
        )
    }

    /// The Eq. (6) tail shared by every entry point: `(ŷ + Σt) /
    /// (excess + N_d)`, clamped into the trust range, `None` on a
    /// non-positive denominator. The **single home of the formula** —
    /// [`gclr_from_parts`](Self::gclr_from_parts) and
    /// [`gclr_from_parts_weighted`](Self::gclr_from_parts_weighted)
    /// differ only in how they evaluate `ŷ` and both delegate here, so
    /// they cannot drift apart.
    fn eq6(y_hat: f64, opinion_sum: f64, opinion_count: f64, excess: f64) -> Option<f64> {
        let denom = excess + opinion_count;
        if denom <= 0.0 {
            return None;
        }
        Some(((y_hat + opinion_sum) / denom).clamp(0.0, 1.0))
    }

    /// Eq. (6) from precomputed pieces: the caller supplies the
    /// subject's opinion sum `Σᵢ t_ij` and count `N_d` plus the
    /// observer's neighbourhood excess `Σ (w − 1)`.
    /// [`gclr`](Self::gclr), [`gclr_matrix`](Self::gclr_matrix) and the
    /// round engines' aggregation phase all evaluate the formula through
    /// the shared `eq6` tail, so they cannot drift apart. Batch callers
    /// amortise the inputs over a whole sweep (see
    /// [`TrustMatrix::subject_sums_and_counts`]).
    pub fn gclr_from_parts(
        &self,
        observer: NodeId,
        subject: NodeId,
        opinion_sum: f64,
        opinion_count: f64,
        excess: f64,
    ) -> Option<f64> {
        if excess + opinion_count <= 0.0 {
            return None;
        }
        Self::eq6(
            self.y_hat(observer, subject),
            opinion_sum,
            opinion_count,
            excess,
        )
    }

    /// [`gclr_from_parts`](Self::gclr_from_parts) with the observer's
    /// excess weights precomputed
    /// ([`neighbour_excess_weights`](Self::neighbour_excess_weights)).
    /// Bit-identical to the plain form — the `ŷ` sum runs over the
    /// same neighbours in the same order with the same factors — while
    /// skipping the redundant observer-row lookups, which halves the
    /// point-lookup count of a full aggregation sweep.
    pub fn gclr_from_parts_weighted(
        &self,
        observer: NodeId,
        excess_weights: &[f64],
        subject: NodeId,
        opinion_sum: f64,
        opinion_count: f64,
        excess: f64,
    ) -> Option<f64> {
        if excess + opinion_count <= 0.0 {
            return None;
        }
        Self::eq6(
            self.y_hat_from_weights(observer, excess_weights, subject),
            opinion_sum,
            opinion_count,
            excess,
        )
    }

    /// The weighted `ŷ` partial sum of Eq. (6) alone: `Σ_k (w_k − 1) ·
    /// t_kj` over the observer's neighbours in adjacency order —
    /// exactly the sum
    /// [`gclr_from_parts_weighted`](Self::gclr_from_parts_weighted)
    /// evaluates internally. Exposed so delta engines can cache it per
    /// `(observer, subject)` pair and re-enter the formula through
    /// [`gclr_from_y_hat`](Self::gclr_from_y_hat): `ŷ` depends only on
    /// the observer's weights and its neighbours' reports about the
    /// subject, so while those are bitwise unchanged the cached value
    /// is bitwise equal to a resum.
    pub fn y_hat_from_weights(
        &self,
        observer: NodeId,
        excess_weights: &[f64],
        subject: NodeId,
    ) -> f64 {
        debug_assert_eq!(
            excess_weights.len(),
            self.graph.neighbours(observer).len(),
            "excess_weights must be neighbour_excess_weights({observer})"
        );
        self.graph
            .neighbours(observer)
            .iter()
            .zip(excess_weights)
            .map(|(&k, &w1)| w1 * self.trust.get_or_zero(NodeId(k), subject).get())
            .sum()
    }

    /// [`y_hat_from_weights`](Self::y_hat_from_weights) for every subject
    /// in `observer`'s neighbourhood at once: `out[p]` becomes `ŷ` of the
    /// neighbour at adjacency slot `p`, bit for bit.
    ///
    /// `t_kj` is nonzero only where `k` holds a row entry about `j`, so
    /// instead of one lookup per (neighbour, subject) pair, each
    /// neighbour `k` — in adjacency order — intersects its row with the
    /// observer's neighbour list (iterating the shorter, binary-searching
    /// the longer) and adds `(w_k − 1) · t_kj` to the matching slots.
    /// Every slot receives the same nonzero additions in the same order
    /// as the per-subject sum; a skipped term — a missing report
    /// (`w · 0`) or a zero weight (`0 · t`) — is `+0.0` for a finite
    /// `w ≥ 0`, which leaves a non-negative sum unchanged. A weight law
    /// that yields any other excess weight takes the per-subject sum
    /// instead.
    ///
    /// # Panics
    /// Panics unless `out` has one slot per neighbour.
    pub fn y_hat_row(&self, observer: NodeId, excess_weights: &[f64], out: &mut [f64]) {
        let nbrs = self.graph.neighbours(observer);
        assert_eq!(out.len(), nbrs.len(), "one ŷ slot per neighbour");
        debug_assert_eq!(excess_weights.len(), nbrs.len());
        if !excess_weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
            for (slot, &j) in out.iter_mut().zip(nbrs) {
                *slot = self.y_hat_from_weights(observer, excess_weights, NodeId(j));
            }
            return;
        }
        out.fill(0.0);
        for (&k, &w1) in nbrs.iter().zip(excess_weights) {
            if w1 == 0.0 {
                continue;
            }
            let k = NodeId(k);
            if self.trust.row_len(k) <= nbrs.len() {
                for &(j, t) in self.trust.row(k) {
                    if let Ok(p) = nbrs.binary_search(&j.0) {
                        out[p] += w1 * t.get();
                    }
                }
            } else {
                for (slot, &j) in out.iter_mut().zip(nbrs) {
                    if let Some(t) = self.trust.get(k, NodeId(j)) {
                        *slot += w1 * t.get();
                    }
                }
            }
        }
    }

    /// Eq. (6) from an externally supplied `ŷ` (cached, or just
    /// resummed via [`y_hat_from_weights`](Self::y_hat_from_weights)):
    /// the same shared `eq6` tail as every other entry point, so a
    /// bitwise-equal `ŷ` yields a bitwise-equal reputation.
    pub fn gclr_from_y_hat(
        &self,
        y_hat: f64,
        opinion_sum: f64,
        opinion_count: f64,
        excess: f64,
    ) -> Option<f64> {
        Self::eq6(y_hat, opinion_sum, opinion_count, excess)
    }

    /// Full GCLR matrix by closed form: `result[I]` maps subject → Rep_Ij
    /// for every subject anyone has an opinion about.
    pub fn gclr_matrix(&self) -> Vec<Vec<(NodeId, f64)>> {
        let n = self.node_count();
        // Per-subject sums and counts in one O(nnz) row-major pass
        // (row-major accumulation visits observers in ascending order per
        // subject, the same f64 addition order as a column scan).
        let (all_sums, all_counts) = self.trust.subject_sums_and_counts();
        let subjects: Vec<NodeId> = all_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(j, _)| NodeId(j as u32))
            .collect();

        (0..n)
            .map(|i| {
                let observer = NodeId(i as u32);
                let excess = self.neighbour_excess_sum(observer);
                subjects
                    .iter()
                    .filter_map(|&j| {
                        self.gclr_from_parts(
                            observer,
                            j,
                            all_sums[j.index()],
                            all_counts[j.index()] as f64,
                            excess,
                        )
                        .map(|rep| (j, rep))
                    })
                    .collect()
            })
            .collect()
    }

    /// With the neutral weight law (`w ≡ 1`), Eq. (5) degenerates to
    /// Eq. (1): GCLR equals the global reputation for every observer.
    /// Exposed for tests and the ablation harness.
    pub fn is_neutral(&self) -> bool {
        self.weights.max_weight() == 1.0
    }
}

/// Build a trust matrix from a latent-quality vector along graph edges:
/// every node estimates each *neighbour*'s quality exactly (the
/// no-estimation-noise limit, handy for analytical tests).
pub fn trust_from_qualities(graph: &Graph, qualities: &[f64]) -> TrustMatrix {
    let rows = graph.nodes().map(|v| {
        let neighbours = graph.neighbours(v).iter();
        neighbours.map(|&w| (NodeId(w), TrustValue::saturating(qualities[w as usize])))
    });
    TrustMatrix::from_rows(graph.node_count(), rows).expect("ids from graph are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::generators;

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    fn small_system(graph: &Graph) -> ReputationSystem<'_> {
        // Star: 0 hub, leaves 1..4. Opinions: 1 and 2 trust 3; hub trusts 1.
        let mut m = TrustMatrix::new(graph.node_count());
        m.set(NodeId(1), NodeId(3), tv(0.8)).unwrap();
        m.set(NodeId(2), NodeId(3), tv(0.4)).unwrap();
        m.set(NodeId(0), NodeId(1), tv(1.0)).unwrap();
        ReputationSystem::new(graph, m, WeightParams::new(2.0, 1.0).unwrap()).unwrap()
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = generators::complete(3);
        let m = TrustMatrix::new(5);
        assert!(matches!(
            ReputationSystem::new(&g, m, WeightParams::default()),
            Err(CoreError::DimensionMismatch {
                matrix: 5,
                graph: 3
            })
        ));
    }

    #[test]
    fn global_reputation_is_mean_opinion() {
        let g = generators::star(5).unwrap();
        let s = small_system(&g);
        assert!((s.global_reputation(NodeId(3)).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(s.global_reputation(NodeId(4)), None);
    }

    #[test]
    fn weight_of_stranger_is_one() {
        let g = generators::star(5).unwrap();
        let s = small_system(&g);
        assert_eq!(s.weight_of(NodeId(0), NodeId(2)), 1.0);
        // Hub trusts node 1 fully: w = 2^(1·1) = 2.
        assert!((s.weight_of(NodeId(0), NodeId(1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn excess_sum_counts_only_trusted_neighbours() {
        let g = generators::star(5).unwrap();
        let s = small_system(&g);
        // Hub's neighbours are 1..4; only node 1 is trusted (w = 2).
        assert!((s.neighbour_excess_sum(NodeId(0)) - 1.0).abs() < 1e-12);
        // Leaf 1's only neighbour is the hub, untrusted by 1: excess 0.
        assert_eq!(s.neighbour_excess_sum(NodeId(1)), 0.0);
    }

    #[test]
    fn y_hat_weights_neighbour_reports() {
        let g = generators::star(5).unwrap();
        let s = small_system(&g);
        // Hub about subject 3: neighbour 1 reports 0.8 with excess 1,
        // neighbours 2, 3, 4 have excess 0.
        assert!((s.y_hat(NodeId(0), NodeId(3)) - 0.8).abs() < 1e-12);
        // Leaf 1 about subject 3: hub has no opinion and no excess.
        assert_eq!(s.y_hat(NodeId(1), NodeId(3)), 0.0);
    }

    /// `y_hat_row` is the per-slot `y_hat_from_weights`, bit for bit, at
    /// every observer of a star with one extra leaf–leaf edge, at one
    /// shard and at three, and under a weight law with all-zero excess.
    #[test]
    fn y_hat_row_equals_the_per_slot_sum() {
        // Hub 0 over leaves 1..=6, plus the edge 1–2.
        let mut builder = dg_graph::GraphBuilder::new(7);
        for leaf in 1..7u32 {
            builder.add_edge(0u32, leaf).unwrap();
        }
        builder.add_edge(1u32, 2u32).unwrap();
        let g = builder.build();
        let cells = [
            // The hub's row: a zero trust value (excess weight 0), and
            // no opinion of leaf 5 or 6.
            (0, 1, 1.0),
            (0, 2, 0.5),
            (0, 3, 0.0),
            (0, 4, 0.7),
            // Leaf rows, with a zero report and reports about
            // non-neighbours. Leaves 3, 5 and 6 hold no row.
            (1, 0, 0.9),
            (1, 2, 0.8),
            (1, 3, 0.0),
            (1, 6, 0.6),
            (2, 1, 0.4),
            (2, 4, 0.6),
            (2, 5, 0.3),
            (4, 0, 0.2),
            (4, 6, 1.0),
        ];
        for shards in [1, 3] {
            let mut trust = TrustMatrix::with_spec(dg_trust::ShardSpec::new(7, shards));
            for (i, j, t) in cells {
                trust.set(NodeId(i), NodeId(j), tv(t)).unwrap();
            }
            // Both branches: the hub iterates the (shorter) leaf rows;
            // leaf 1 searches the (longer) hub row.
            assert!(trust.row_len(NodeId(1)) < g.degree(NodeId(0)));
            assert!(trust.row_len(NodeId(0)) > g.degree(NodeId(1)));
            for weights in [
                WeightParams::new(2.0, 1.5).unwrap(),
                WeightParams::neutral(),
            ] {
                let s = ReputationSystem::new(&g, trust.clone(), weights).unwrap();
                for observer in g.nodes() {
                    let w = s.neighbour_excess_weights(observer);
                    let mut row = vec![f64::NAN; w.len()];
                    s.y_hat_row(observer, &w, &mut row);
                    for (&j, y) in g.neighbours(observer).iter().zip(&row) {
                        let want = s.y_hat_from_weights(observer, &w, NodeId(j));
                        assert_eq!(y.to_bits(), want.to_bits(), "ŷ({observer}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn gclr_matches_eq6_by_hand() {
        let g = generators::star(5).unwrap();
        let s = small_system(&g);
        // Observer 0, subject 3: (ŷ + Σt)/(excess + N_d)
        //   = (0.8 + 1.2)/(1.0 + 2) = 2.0/3.
        let rep = s.gclr(NodeId(0), NodeId(3)).unwrap();
        assert!((rep - 2.0 / 3.0).abs() < 1e-12);
        // Observer 1 (no weighted neighbours): plain mean 0.6.
        let rep1 = s.gclr(NodeId(1), NodeId(3)).unwrap();
        assert!((rep1 - 0.6).abs() < 1e-12);
        // Unknown subject with no weighted neighbourhood: None for
        // observer 1, Some for observer 0 (its excess is positive).
        assert_eq!(s.gclr(NodeId(1), NodeId(4)), None);
        let rep_unknown = s.gclr(NodeId(0), NodeId(4)).unwrap();
        assert_eq!(rep_unknown, 0.0);
    }

    #[test]
    fn neutral_weights_degenerate_to_global() {
        let g = generators::star(5).unwrap();
        let mut m = TrustMatrix::new(5);
        m.set(NodeId(1), NodeId(3), tv(0.8)).unwrap();
        m.set(NodeId(2), NodeId(3), tv(0.4)).unwrap();
        m.set(NodeId(0), NodeId(1), tv(1.0)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::neutral()).unwrap();
        assert!(s.is_neutral());
        for observer in g.nodes() {
            let rep = s.gclr(observer, NodeId(3)).unwrap();
            assert!((rep - 0.6).abs() < 1e-12, "observer {observer}: {rep}");
        }
    }

    #[test]
    fn gclr_matrix_agrees_with_pointwise() {
        let g = generators::complete(6);
        let mut m = TrustMatrix::new(6);
        m.set(NodeId(0), NodeId(1), tv(0.9)).unwrap();
        m.set(NodeId(2), NodeId(1), tv(0.5)).unwrap();
        m.set(NodeId(3), NodeId(4), tv(0.7)).unwrap();
        m.set(NodeId(1), NodeId(2), tv(0.6)).unwrap();
        let s = ReputationSystem::new(&g, m, WeightParams::default()).unwrap();
        let matrix = s.gclr_matrix();
        for (i, row) in matrix.iter().enumerate() {
            for &(j, rep) in row {
                let direct = s.gclr(NodeId(i as u32), j).unwrap();
                assert!((rep - direct).abs() < 1e-12, "({i}, {j})");
            }
        }
        // Subjects 1, 2, 4 have opinions; rows should cover exactly those.
        assert_eq!(matrix[5].len(), 3);
    }

    #[test]
    fn trust_from_qualities_fills_edges() {
        let g = generators::ring(4).unwrap();
        let q = [0.1, 0.4, 0.7, 1.0];
        let m = trust_from_qualities(&g, &q);
        assert_eq!(m.get(NodeId(0), NodeId(1)).unwrap().get(), 0.4);
        assert_eq!(m.get(NodeId(1), NodeId(0)).unwrap().get(), 0.1);
        assert_eq!(m.get(NodeId(0), NodeId(2)), None); // not adjacent
        assert_eq!(m.entry_count(), 8); // 4 edges, both directions
    }
}
