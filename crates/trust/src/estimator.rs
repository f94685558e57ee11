//! Transaction-outcome driven trust estimation.
//!
//! The paper assumes every node "periodically calculates the trust value of
//! the other nodes on the basis of quality of service provided by them
//! against the requests made", delegating the estimator itself to the
//! authors' earlier BLUE work \[20\], for which no trace data is published.
//! We substitute the one estimator every run, artifact and persisted
//! record uses: [`EwmaEstimator`], an exponentially weighted moving
//! average of outcome quality (per-edge online updates producing
//! `t_ij ∈ [0, 1]`), the common choice in P2P trust systems. See
//! `docs/PAPER_MAP.md`, "Trust estimation from transactions", for why
//! there is exactly one.

use crate::value::TrustValue;

/// Outcome of a single transaction (a chunk upload in the file-sharing
/// model), as judged by the downloader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransactionOutcome {
    /// The provider served the request; `quality ∈ [0, 1]` reflects QoS
    /// (bandwidth granted, chunk validity, ...).
    Served {
        /// Quality-of-service score of the transaction.
        quality: f64,
    },
    /// The provider refused or failed to serve (free-riding behaviour).
    Refused,
}

impl TransactionOutcome {
    /// The quality signal of the outcome: `quality` for served (clamped),
    /// 0 for refused.
    pub fn quality(self) -> f64 {
        match self {
            TransactionOutcome::Served { quality } => {
                if quality.is_nan() {
                    0.0
                } else {
                    quality.clamp(0.0, 1.0)
                }
            }
            TransactionOutcome::Refused => 0.0,
        }
    }
}

/// Exponentially-weighted moving average of transaction quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaEstimator {
    value: TrustValue,
    rate: f64,
    count: u64,
}

impl EwmaEstimator {
    /// New estimator starting at the anti-whitewash initial value 0 with
    /// the given learning rate (clamped to `[0, 1]`).
    pub fn new(rate: f64) -> Self {
        Self {
            value: TrustValue::ZERO,
            rate: if rate.is_nan() {
                0.0
            } else {
                rate.clamp(0.0, 1.0)
            },
            count: 0,
        }
    }

    /// The learning rate (needed to checkpoint the estimator).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Rebuild an estimator from checkpointed parts, bit for bit: the
    /// `rate` is stored as given (a checkpointed rate was already
    /// clamped by [`new`](Self::new) when the estimator was first
    /// built), and `value`/`count` are taken verbatim, so a
    /// snapshot/restore round-trip reproduces the exact estimator
    /// state.
    pub fn from_parts(rate: f64, value: TrustValue, count: u64) -> Self {
        Self { value, rate, count }
    }

    /// Incorporate one outcome.
    pub fn record(&mut self, outcome: TransactionOutcome) {
        self.value = self
            .value
            .blend_towards(TrustValue::saturating(outcome.quality()), self.rate);
        self.count += 1;
    }

    /// Current estimate `t_ij`.
    pub fn estimate(&self) -> TrustValue {
        self.value
    }

    /// Number of transactions observed so far.
    pub fn transactions(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn served(q: f64) -> TransactionOutcome {
        TransactionOutcome::Served { quality: q }
    }

    #[test]
    fn outcome_quality_clamps() {
        assert_eq!(served(2.0).quality(), 1.0);
        assert_eq!(served(-1.0).quality(), 0.0);
        assert_eq!(served(f64::NAN).quality(), 0.0);
        assert_eq!(TransactionOutcome::Refused.quality(), 0.0);
    }

    #[test]
    fn ewma_rises_with_good_service() {
        let mut e = EwmaEstimator::new(0.5);
        assert_eq!(e.estimate(), TrustValue::ZERO);
        for _ in 0..20 {
            e.record(served(1.0));
        }
        assert!(e.estimate().get() > 0.99);
        assert_eq!(e.transactions(), 20);
    }

    #[test]
    fn ewma_falls_after_refusals() {
        let mut e = EwmaEstimator::from_parts(0.5, TrustValue::ONE, 0);
        for _ in 0..20 {
            e.record(TransactionOutcome::Refused);
        }
        assert!(e.estimate().get() < 0.01);
    }

    proptest! {
        #[test]
        fn estimates_always_in_range(qualities in proptest::collection::vec(-1.0..2.0f64, 0..50)) {
            let mut ewma = EwmaEstimator::new(0.3);
            for q in qualities {
                let o = if q < 0.0 { TransactionOutcome::Refused } else { served(q) };
                ewma.record(o);
                prop_assert!((0.0..=1.0).contains(&ewma.estimate().get()));
            }
        }
    }
}
