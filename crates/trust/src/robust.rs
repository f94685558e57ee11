//! Robust aggregation of gossiped trust reports.
//!
//! The paper's weighted scheme (Eq. (6)) already shrinks collusion error
//! by the neighbourhood-weight factor of Eq. (17), but it still averages
//! *every* report it hears. This module adds the countermeasure knobs
//! the analysis implies for worst-case deviations:
//!
//! * **report clamping** — every gossiped report is clamped into
//!   `[clamp_lo, clamp_hi]` before it enters an aggregate, so the 0/1
//!   extremes that slander and ballot-stuffing rely on lose leverage;
//! * **trimmed aggregation** — the most extreme `trim_fraction` of
//!   reports about each subject is dropped from each tail before
//!   summing (a per-subject trimmed mean), the classic robust-statistics
//!   answer to a bounded fraction of outliers.
//!
//! [`RobustAggregation::none`] (the default) reproduces the paper's
//! plain aggregation bit-for-bit; experiments sweep attack strength
//! against these knobs (see the `claims` harness in `dg-bench`).
//!
//! The policy applies where per-subject aggregates are materialised —
//! [`TrustMatrix::robust_subject_sums_and_counts`](crate::TrustMatrix::robust_subject_sums_and_counts).
//! Distributed gossip averaging cannot trim (no node ever sees the full
//! report set), which is faithful to deployments: trimming is an
//! aggregation-point defense, clamping also works per-report.

use crate::error::TrustError;
use serde::{Deserialize, Serialize};

/// Robust-aggregation policy for gossiped trust reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustAggregation {
    /// Reports below this floor are raised to it.
    pub clamp_lo: f64,
    /// Reports above this ceiling are lowered to it.
    pub clamp_hi: f64,
    /// Fraction of reports trimmed from *each* tail of every subject's
    /// report distribution (0 = no trimming; values ≥ 0.5 are invalid —
    /// they would trim everything).
    pub trim_fraction: f64,
}

impl Default for RobustAggregation {
    fn default() -> Self {
        Self::none()
    }
}

impl RobustAggregation {
    /// The paper's plain aggregation: no clamping, no trimming.
    pub const fn none() -> Self {
        Self {
            clamp_lo: 0.0,
            clamp_hi: 1.0,
            trim_fraction: 0.0,
        }
    }

    /// The default defended setting used by the claims harness: reports
    /// clamped into `[0.1, 0.9]`, 20 % trimmed per tail. The trim
    /// fraction matters at realistic report counts: overlay subjects
    /// collect only a handful of reports, and `floor(trim · count)`
    /// must reach 1 before a lone extremist loses any leverage.
    pub const fn defended() -> Self {
        Self {
            clamp_lo: 0.1,
            clamp_hi: 0.9,
            trim_fraction: 0.2,
        }
    }

    /// Whether this policy changes anything at all.
    pub fn is_none(&self) -> bool {
        self.clamp_lo == 0.0 && self.clamp_hi == 1.0 && self.trim_fraction == 0.0
    }

    /// Validate the knobs.
    pub fn validated(self) -> Result<Self, TrustError> {
        // Range `contains` rejects NaN and infinities along with
        // out-of-window values.
        if !(0.0..=1.0).contains(&self.clamp_lo)
            || !(0.0..=1.0).contains(&self.clamp_hi)
            || self.clamp_lo > self.clamp_hi
        {
            return Err(TrustError::InvalidRobustPolicy(format!(
                "clamp window [{}, {}] must be an ordered sub-interval of [0, 1]",
                self.clamp_lo, self.clamp_hi
            )));
        }
        if !(0.0..0.5).contains(&self.trim_fraction) {
            return Err(TrustError::InvalidRobustPolicy(format!(
                "trim fraction {} must lie in [0, 0.5)",
                self.trim_fraction
            )));
        }
        Ok(self)
    }

    /// Clamp one report into the policy window.
    pub fn clamp(&self, report: f64) -> f64 {
        report.clamp(self.clamp_lo, self.clamp_hi)
    }

    /// How many reports to drop from each tail of a subject with
    /// `count` reports (never leaves a subject empty).
    pub(crate) fn trim_per_tail(&self, count: usize) -> usize {
        let k = (self.trim_fraction * count as f64).floor() as usize;
        if 2 * k >= count {
            count.saturating_sub(1) / 2
        } else {
            k
        }
    }

    /// Aggregate one subject's raw reports into `(sum, kept_count)`
    /// under this policy. This is *the* per-subject aggregation kernel:
    /// every materialisation site — the from-scratch row-major sweep
    /// ([`TrustMatrix::robust_subject_sums_and_counts`](crate::TrustMatrix::robust_subject_sums_and_counts))
    /// and the delta cache
    /// ([`SubjectAggregateCache`](crate::SubjectAggregateCache)) —
    /// funnels through it, which is what makes delta-refreshed
    /// aggregates bit-identical to from-scratch ones.
    ///
    /// `reports` must be in ascending-*observer* order (the row-major
    /// visit order); under [`RobustAggregation::none`] the sum
    /// accumulates in exactly that order, reproducing the plain sweep's
    /// float additions bit-for-bit. Under an active policy the reports
    /// are clamped, sorted by total order and trimmed per tail before
    /// summing in sorted order — again matching the from-scratch path.
    /// The buffer is scratch: the call may reorder and overwrite it.
    pub(crate) fn subject_sum(&self, reports: &mut [f64]) -> (f64, usize) {
        if reports.is_empty() {
            return (0.0, 0);
        }
        if self.is_none() {
            return (reports.iter().sum(), reports.len());
        }
        for v in reports.iter_mut() {
            *v = self.clamp(*v);
        }
        reports.sort_by(f64::total_cmp);
        let k = self.trim_per_tail(reports.len());
        let kept = &reports[k..reports.len() - k];
        (kept.iter().sum(), kept.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let p = RobustAggregation::none();
        assert!(p.is_none());
        assert_eq!(p.clamp(0.0), 0.0);
        assert_eq!(p.clamp(1.0), 1.0);
        assert_eq!(p.trim_per_tail(10), 0);
        assert!(p.validated().is_ok());
    }

    #[test]
    fn defended_clamps_and_trims() {
        let p = RobustAggregation::defended().validated().unwrap();
        assert!(!p.is_none());
        assert_eq!(p.clamp(0.0), 0.1);
        assert_eq!(p.clamp(1.0), 0.9);
        assert_eq!(p.clamp(0.5), 0.5);
        assert_eq!(p.trim_per_tail(20), 4);
        assert_eq!(p.trim_per_tail(6), 1);
    }

    #[test]
    fn trimming_never_empties_a_subject() {
        let p = RobustAggregation {
            trim_fraction: 0.49,
            ..RobustAggregation::none()
        };
        for count in 1..20 {
            assert!(count > 2 * p.trim_per_tail(count), "count {count}");
        }
    }

    #[test]
    fn subject_sum_matches_manual_trimmed_mean() {
        let p = RobustAggregation::defended();
        // Six reports: clamp pulls 0.0 → 0.1 and 1.0 → 0.9, trim drops
        // one from each tail, leaving {0.2, 0.5, 0.7, 0.9}.
        let mut reports = vec![0.5, 1.0, 0.0, 0.9, 0.2, 0.7];
        let (sum, count) = p.subject_sum(&mut reports);
        assert_eq!(count, 4);
        assert!((sum - (0.2 + 0.5 + 0.7 + 0.9)).abs() < 1e-12);

        let none = RobustAggregation::none();
        let mut reports = vec![0.5, 1.0, 0.0];
        assert_eq!(none.subject_sum(&mut reports), (1.5, 3));
        assert_eq!(none.subject_sum(&mut []), (0.0, 0));
    }

    #[test]
    fn validation_rejects_bad_windows() {
        assert!(RobustAggregation {
            clamp_lo: 0.8,
            clamp_hi: 0.2,
            trim_fraction: 0.0
        }
        .validated()
        .is_err());
        assert!(RobustAggregation {
            clamp_lo: -0.1,
            clamp_hi: 1.0,
            trim_fraction: 0.0
        }
        .validated()
        .is_err());
        assert!(RobustAggregation {
            clamp_lo: 0.0,
            clamp_hi: 1.0,
            trim_fraction: 0.5
        }
        .validated()
        .is_err());
        assert!(RobustAggregation {
            clamp_lo: 0.0,
            clamp_hi: 1.0,
            trim_fraction: f64::NAN
        }
        .validated()
        .is_err());
    }
}
