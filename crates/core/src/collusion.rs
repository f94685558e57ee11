//! Collusion modelling and analysis (Section 5.2, Figs. 5 and 6).
//!
//! "There is a subset C ... colluding in groups with a group size of G.
//! ... if some node is the member of that group then group members of
//! colluding group will report its reputation as 1, whereas for other
//! nodes they will report the reputation value as 0."
//!
//! Concretely, a colluder *distorts the gossip channel* in two ways:
//!
//! 1. it **replaces** every honest opinion it holds: 0 for any rated peer
//!    outside its group, 1 for a rated group-mate (bad-mouthing and
//!    ballot-stuffing over its existing footprint), and
//! 2. it **injects** an endorsement (value 1) for each group-mate it had
//!    not rated before — the paper's `+G` inflation of Eq. (10). (We use
//!    the `G − 1` non-self endorsements; a node does not gossip feedback
//!    about itself. The shape of the analysis is unchanged.)
//!
//! The *reference* (`r̂` of Eq. (18)) is the aggregate had everyone
//! reported honestly — Eq. (8)'s "real reputation", evaluated with the
//! gossip semantics (mean over actual opinion holders).
//!
//! Colluders pollute only the gossip channel. The paper assumes the two
//! other trust sources are collusion-proof: direct interaction trivially,
//! and neighbour reports because "neighbours have a definite level of
//! trust for each other" (an optional `neighbours_lie` switch lets the
//! ablation harness drop that assumption).
//!
//! [`theory`] reproduces the exact ΔR formulas: Eq. (12) for plain gossip
//! aggregation and Eq. (17) showing the weighted scheme shrinks the error
//! by `N / (N + Σ(w_oi − 1))`.

use crate::error::CoreError;
use crate::reputation::ReputationSystem;
use dg_graph::NodeId;
use dg_trust::TrustMatrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Collusion scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollusionScheme {
    /// Fraction of the population that colludes, in `[0, 1]`.
    pub colluder_fraction: f64,
    /// Size of each colluding group (`1` = the individual colluders of
    /// Fig. 6, who bad-mouth everyone they rated and endorse nobody).
    pub group_size: usize,
}

impl CollusionScheme {
    /// Validated constructor.
    pub fn new(colluder_fraction: f64, group_size: usize) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&colluder_fraction) || !colluder_fraction.is_finite() {
            return Err(CoreError::InvalidCollusion(format!(
                "fraction {colluder_fraction} outside [0, 1]"
            )));
        }
        if group_size == 0 {
            return Err(CoreError::InvalidCollusion("group size 0".into()));
        }
        Ok(Self {
            colluder_fraction,
            group_size,
        })
    }
}

/// Which nodes collude and in which group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAssignment {
    member_of: Vec<Option<u32>>,
    groups: Vec<Vec<NodeId>>,
}

impl GroupAssignment {
    /// Sample an assignment: `round(fraction · n)` random nodes,
    /// partitioned into groups of `group_size` (the last group may be
    /// smaller).
    pub fn assign<R: Rng + ?Sized>(
        n: usize,
        scheme: CollusionScheme,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        let scheme = CollusionScheme::new(scheme.colluder_fraction, scheme.group_size)?;
        let c = (scheme.colluder_fraction * n as f64).round() as usize;
        let c = c.min(n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(rng);
        ids.truncate(c);
        let mut member_of = vec![None; n];
        let mut groups = Vec::new();
        for chunk in ids.chunks(scheme.group_size) {
            let gid = groups.len() as u32;
            let members: Vec<NodeId> = chunk.iter().map(|&i| NodeId(i)).collect();
            for &m in &members {
                member_of[m.index()] = Some(gid);
            }
            groups.push(members);
        }
        Ok(Self { member_of, groups })
    }

    /// Build from explicit groups: the tests' fixture builder.
    #[cfg(test)]
    pub(crate) fn from_groups(n: usize, groups: Vec<Vec<NodeId>>) -> Result<Self, CoreError> {
        let mut member_of = vec![None; n];
        for (gid, members) in groups.iter().enumerate() {
            for &m in members {
                if m.index() >= n {
                    return Err(CoreError::InvalidCollusion(format!(
                        "node {m} out of range for {n} nodes"
                    )));
                }
                if member_of[m.index()].is_some() {
                    return Err(CoreError::InvalidCollusion(format!(
                        "node {m} appears in two groups"
                    )));
                }
                member_of[m.index()] = Some(gid as u32);
            }
        }
        Ok(Self { member_of, groups })
    }

    /// No collusion at all.
    pub fn none(n: usize) -> Self {
        Self {
            member_of: vec![None; n],
            groups: Vec::new(),
        }
    }

    /// Whether `node` colludes.
    pub fn is_colluder(&self, node: NodeId) -> bool {
        self.member_of[node.index()].is_some()
    }

    /// Whether `a` and `b` collude together.
    pub(crate) fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        match (self.member_of[a.index()], self.member_of[b.index()]) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Total colluders `C`.
    pub fn colluder_count(&self) -> usize {
        self.member_of.iter().filter(|m| m.is_some()).count()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Group-mates of `node` excluding itself (empty for honest nodes and
    /// lone colluders).
    pub(crate) fn group_mates(&self, node: NodeId) -> Vec<NodeId> {
        match self.member_of[node.index()] {
            Some(g) => self.groups[g as usize]
                .iter()
                .copied()
                .filter(|&m| m != node)
                .collect(),
            None => Vec::new(),
        }
    }
}

/// Collusion-aware closed-form aggregates.
///
/// Wraps the **honest** trust matrix (what direct interactions actually
/// produced) plus a group assignment, and evaluates the gossip limits
/// with and without the distortion.
#[derive(Debug, Clone)]
pub struct ColludedAggregates<'a> {
    honest: &'a TrustMatrix,
    assignment: &'a GroupAssignment,
}

impl<'a> ColludedAggregates<'a> {
    /// Create the view.
    pub fn new(honest: &'a TrustMatrix, assignment: &'a GroupAssignment) -> Self {
        Self { honest, assignment }
    }

    /// What observer `i` injects into the gossip about subject `j`.
    ///
    /// * honest `i`: its direct trust, if any;
    /// * colluding `i` that rated `j`: 1 for a group-mate, 0 otherwise;
    /// * colluding `i` that did *not* rate `j`: an injected endorsement
    ///   (1) when `j` is a group-mate, nothing otherwise.
    pub(crate) fn gossip_report(&self, i: NodeId, j: NodeId) -> Option<f64> {
        if i == j {
            return None; // nobody gossips feedback about itself
        }
        if self.assignment.is_colluder(i) {
            if self.assignment.same_group(i, j) {
                Some(1.0)
            } else if self.honest.has_opinion(i, j) {
                Some(0.0)
            } else {
                None
            }
        } else {
            self.honest.get(i, j).map(|t| t.get())
        }
    }

    /// `(Σ reports, #reporters)` about `j` in the colluded gossip.
    pub fn colluded_aggregate(&self, j: NodeId) -> (f64, f64) {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, t) in self.honest.column(j) {
            if self.assignment.is_colluder(i) {
                // Replaced report: 1 for group-mates, 0 otherwise.
                if self.assignment.same_group(i, j) {
                    sum += 1.0;
                }
            } else {
                sum += t.get();
            }
            count += 1;
        }
        // Injected endorsements from group-mates that had not rated j.
        for mate in self.assignment.group_mates(j) {
            if !self.honest.has_opinion(mate, j) {
                sum += 1.0;
                count += 1;
            }
        }
        (sum, count as f64)
    }

    /// `(Σ reports, #reporters)` had everyone reported honestly
    /// (Eq. (8)'s real reputation, gossip semantics).
    pub fn honest_aggregate(&self, j: NodeId) -> (f64, f64) {
        (
            self.honest.opinion_sum(j),
            self.honest.opinion_count(j) as f64,
        )
    }

    /// Global (Algorithm 1-style) estimate with collusion.
    pub fn global_colluded(&self, j: NodeId) -> Option<f64> {
        let (sum, count) = self.colluded_aggregate(j);
        (count > 0.0).then(|| sum / count)
    }

    /// Global reference without distortion.
    pub fn global_clean(&self, j: NodeId) -> Option<f64> {
        let (sum, count) = self.honest_aggregate(j);
        (count > 0.0).then(|| sum / count)
    }

    /// GCLR estimate (Eq. (6)) at `observer` about `j` with the polluted
    /// gossip channel. Per the paper's assumption neighbours report their
    /// honest direct trust; set `neighbours_lie` to let colluding
    /// neighbours feed their distorted reports into `ŷ` instead.
    pub fn gclr_colluded(
        &self,
        system: &ReputationSystem<'_>,
        observer: NodeId,
        j: NodeId,
        neighbours_lie: bool,
    ) -> Option<f64> {
        let excess = system.neighbour_excess_sum(observer);
        let (sum, count) = self.colluded_aggregate(j);
        if !neighbours_lie {
            return system.gclr_from_parts(observer, j, sum, count, excess);
        }
        let y_hat = system.weighted_reports(observer, system.excess_weights(observer), |k| {
            self.gossip_report(k, j).unwrap_or(0.0)
        });
        system.gclr_from_y_hat(y_hat, sum, count, excess)
    }

    /// GCLR reference without distortion — exactly the honest system's
    /// Eq. (6) value.
    pub fn gclr_clean(
        &self,
        system: &ReputationSystem<'_>,
        observer: NodeId,
        j: NodeId,
    ) -> Option<f64> {
        system.gclr(observer, j)
    }
}

/// The paper's Eq. (18): average RMS **relative** error between the
/// with-collusion estimates `r_ij` and the without-collusion reference
/// `r̂_ij`, averaged per observer and then over observers.
///
/// Pairs where `r_ij = 0` are skipped (the relative error is undefined
/// there); pairs where either estimate is undefined are skipped too.
pub fn average_rms_error<F, G>(
    n: usize,
    subjects: &[NodeId],
    with_collusion: F,
    reference: G,
) -> f64
where
    F: Fn(NodeId, NodeId) -> Option<f64>,
    G: Fn(NodeId, NodeId) -> Option<f64>,
{
    if n == 0 || subjects.is_empty() {
        return 0.0;
    }
    let mut per_observer_sum = 0.0;
    for i in 0..n {
        let observer = NodeId(i as u32);
        let mut acc = 0.0;
        for &j in subjects {
            let (Some(r), Some(r_hat)) = (with_collusion(observer, j), reference(observer, j))
            else {
                continue;
            };
            if r.abs() < 1e-12 {
                continue;
            }
            let rel = (r - r_hat) / r;
            acc += rel * rel;
        }
        per_observer_sum += (acc / subjects.len() as f64).sqrt();
    }
    per_observer_sum / n as f64
}

/// Exact reproductions of the Section 5.2 formulas.
pub mod theory {
    /// Eq. (12): ΔR with plain gossip aggregation,
    /// `ΔR_old = −GC/N² + Σ_{i∈C} t_ij / N`.
    ///
    /// Public with no caller yet: ROADMAP item 17 either checks it against a run or deletes it.
    pub fn delta_r_old(n: usize, c: usize, g: usize, colluder_trust_sum: f64) -> f64 {
        let n = n as f64;
        -((g * c) as f64) / (n * n) + colluder_trust_sum / n
    }

    /// The error-shrink factor of Eq. (17): `N / (N + Σ_i (w_oi − 1))`.
    pub fn shrink_factor(n: usize, excess_weight_sum: f64) -> f64 {
        let n = n as f64;
        n / (n + excess_weight_sum)
    }

    /// Eq. (17): `ΔR_new = shrink · ΔR_old`.
    ///
    /// Public with no caller yet: ROADMAP item 17 either checks it against a run or deletes it.
    pub fn delta_r_new(
        n: usize,
        c: usize,
        g: usize,
        colluder_trust_sum: f64,
        excess_weight_sum: f64,
    ) -> f64 {
        shrink_factor(n, excess_weight_sum) * delta_r_old(n, c, g, colluder_trust_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::generators;
    use dg_trust::{TrustValue, WeightParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    #[test]
    fn scheme_validation() {
        assert!(CollusionScheme::new(0.5, 3).is_ok());
        assert!(CollusionScheme::new(-0.1, 3).is_err());
        assert!(CollusionScheme::new(1.5, 3).is_err());
        assert!(CollusionScheme::new(0.5, 0).is_err());
    }

    #[test]
    fn assignment_sizes() {
        let scheme = CollusionScheme::new(0.3, 4).unwrap();
        let a = GroupAssignment::assign(100, scheme, &mut rng(1)).unwrap();
        assert_eq!(a.colluder_count(), 30);
        assert_eq!(a.group_count(), 8); // ceil(30/4)
        for g in 0..7 {
            assert_eq!(a.groups[g].len(), 4);
        }
        assert_eq!(a.groups[7].len(), 2);
    }

    #[test]
    fn from_groups_validates() {
        assert!(GroupAssignment::from_groups(3, vec![vec![NodeId(5)]]).is_err());
        assert!(GroupAssignment::from_groups(3, vec![vec![NodeId(0)], vec![NodeId(0)]]).is_err());
        let a = GroupAssignment::from_groups(4, vec![vec![NodeId(1), NodeId(2)]]).unwrap();
        assert!(a.same_group(NodeId(1), NodeId(2)));
        assert_eq!(a.group_mates(NodeId(1)), vec![NodeId(2)]);
        assert!(a.group_mates(NodeId(0)).is_empty());
    }

    #[test]
    fn gossip_reports_follow_collusion_rule() {
        // 5 nodes; 3 and 4 collude. Honest opinions: 3 rated 0 (0.8),
        // 0 rated 3 (0.9), 1 rated 0 (0.6).
        let mut honest = TrustMatrix::new(5);
        honest.set(NodeId(3), NodeId(0), tv(0.8)).unwrap();
        honest.set(NodeId(0), NodeId(3), tv(0.9)).unwrap();
        honest.set(NodeId(1), NodeId(0), tv(0.6)).unwrap();
        let a = GroupAssignment::from_groups(5, vec![vec![NodeId(3), NodeId(4)]]).unwrap();
        let view = ColludedAggregates::new(&honest, &a);

        // Colluder bad-mouths a rated outsider.
        assert_eq!(view.gossip_report(NodeId(3), NodeId(0)), Some(0.0));
        // Colluder endorses its group-mate even without a rating.
        assert_eq!(view.gossip_report(NodeId(3), NodeId(4)), Some(1.0));
        assert_eq!(view.gossip_report(NodeId(4), NodeId(3)), Some(1.0));
        // Colluder stays silent about strangers outside its footprint.
        assert_eq!(view.gossip_report(NodeId(4), NodeId(0)), None);
        // Honest node reports its trust; silence without an opinion.
        assert_eq!(view.gossip_report(NodeId(1), NodeId(0)), Some(0.6));
        assert_eq!(view.gossip_report(NodeId(2), NodeId(0)), None);
        // No self-reports.
        assert_eq!(view.gossip_report(NodeId(3), NodeId(3)), None);
    }

    #[test]
    fn colluded_aggregates_match_hand_computation() {
        // Same setup as above.
        let mut honest = TrustMatrix::new(5);
        honest.set(NodeId(3), NodeId(0), tv(0.8)).unwrap();
        honest.set(NodeId(0), NodeId(3), tv(0.9)).unwrap();
        honest.set(NodeId(1), NodeId(0), tv(0.6)).unwrap();
        let a = GroupAssignment::from_groups(5, vec![vec![NodeId(3), NodeId(4)]]).unwrap();
        let view = ColludedAggregates::new(&honest, &a);

        // Subject 0 (honest): colluder 3's 0.8 becomes 0; honest 0.6 stays.
        let (sum0, count0) = view.colluded_aggregate(NodeId(0));
        assert!((sum0 - 0.6).abs() < 1e-12);
        assert_eq!(count0, 2.0);
        assert!((view.global_colluded(NodeId(0)).unwrap() - 0.3).abs() < 1e-12);
        // Clean: (0.8 + 0.6)/2.
        assert!((view.global_clean(NodeId(0)).unwrap() - 0.7).abs() < 1e-12);

        // Subject 3 (colluder): honest 0.9 stays (observer 0 is honest);
        // group-mate 4 injects a fresh endorsement.
        let (sum3, count3) = view.colluded_aggregate(NodeId(3));
        assert!((sum3 - 1.9).abs() < 1e-12);
        assert_eq!(count3, 2.0);
        assert!((view.global_colluded(NodeId(3)).unwrap() - 0.95).abs() < 1e-12);
        assert!((view.global_clean(NodeId(3)).unwrap() - 0.9).abs() < 1e-12);

        // Subject 4 (colluder, never rated honestly): only the injected
        // endorsement; no clean reference.
        let (sum4, count4) = view.colluded_aggregate(NodeId(4));
        assert_eq!((sum4, count4), (1.0, 1.0));
        assert_eq!(view.global_clean(NodeId(4)), None);
    }

    #[test]
    fn rated_group_mate_is_replaced_not_double_counted() {
        // Colluder 1 had honestly rated its group-mate 2 at 0.3; the lie
        // replaces it with 1.0 and must not also inject an endorsement.
        let mut honest = TrustMatrix::new(3);
        honest.set(NodeId(1), NodeId(2), tv(0.3)).unwrap();
        let a = GroupAssignment::from_groups(3, vec![vec![NodeId(1), NodeId(2)]]).unwrap();
        let view = ColludedAggregates::new(&honest, &a);
        let (sum, count) = view.colluded_aggregate(NodeId(2));
        assert_eq!((sum, count), (1.0, 1.0));
    }

    #[test]
    fn weighted_scheme_shrinks_collusion_error() {
        // Eq. (17) in action: the GCLR estimate with a trusted
        // neighbourhood deviates less (relatively) than the plain global
        // estimate under the same collusion.
        let g = generators::complete(20);
        let qualities: Vec<f64> = (0..20).map(|i| 0.4 + 0.02 * i as f64).collect();
        let honest = crate::reputation::trust_from_qualities(&g, &qualities);
        let scheme = CollusionScheme::new(0.3, 3).unwrap();
        let assignment = GroupAssignment::assign(20, scheme, &mut rng(5)).unwrap();
        let system =
            ReputationSystem::new(&g, honest.clone(), WeightParams::new(4.0, 2.0).unwrap())
                .unwrap();
        let view = ColludedAggregates::new(&honest, &assignment);

        let subjects: Vec<NodeId> = (0..20u32).map(NodeId).collect();
        let global_err = average_rms_error(
            20,
            &subjects,
            |_, j| view.global_colluded(j),
            |_, j| view.global_clean(j),
        );
        let gclr_err = average_rms_error(
            20,
            &subjects,
            |i, j| view.gclr_colluded(&system, i, j, false),
            |i, j| view.gclr_clean(&system, i, j),
        );
        assert!(
            gclr_err < global_err,
            "gclr {gclr_err} should beat global {global_err}"
        );
        // And the absolute scale is moderate, not exploded.
        assert!(global_err < 2.0, "global_err {global_err}");
    }

    #[test]
    fn rms_error_zero_without_collusion() {
        let mut honest = TrustMatrix::new(5);
        honest.set(NodeId(0), NodeId(1), tv(0.5)).unwrap();
        let assignment = GroupAssignment::none(5);
        let view = ColludedAggregates::new(&honest, &assignment);
        let subjects = [NodeId(1)];
        let err = average_rms_error(
            5,
            &subjects,
            |_, j| view.global_colluded(j),
            |_, j| view.global_clean(j),
        );
        assert_eq!(err, 0.0);
    }

    #[test]
    fn theory_formulas() {
        // ΔR_old = −GC/N² + Σt/N with N=100, C=20, G=5, Σt = 8.
        let old = theory::delta_r_old(100, 20, 5, 8.0);
        assert!((old - (-0.01 + 0.08)).abs() < 1e-12);
        // Shrink: N=100, Σ(w−1)=300 → 0.25.
        let s = theory::shrink_factor(100, 300.0);
        assert!((s - 0.25).abs() < 1e-12);
        let new = theory::delta_r_new(100, 20, 5, 8.0, 300.0);
        assert!((new - 0.25 * old).abs() < 1e-12);
        assert!(new.abs() < old.abs());
    }

    #[test]
    fn empty_inputs_give_zero_error() {
        assert_eq!(
            average_rms_error(0, &[NodeId(0)], |_, _| Some(1.0), |_, _| Some(1.0)),
            0.0
        );
        assert_eq!(
            average_rms_error(5, &[], |_, _| Some(1.0), |_, _| Some(1.0)),
            0.0
        );
    }
}
