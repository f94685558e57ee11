//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least ten samples beyond it, with the
//! sample count — a p99 over 40 rounds is one sample and says nothing.

/// Percentiles a tail may be reported at, ascending.
const TAILS: [f64; 6] = [0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest percentile in [`TAILS`] with at least [`MIN_BEYOND`]
/// samples strictly beyond its nearest rank, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|&p| n - ((p * n as f64).ceil() as usize).min(n) >= MIN_BEYOND)
}

/// One timing's samples, sorted: median, reportable tail and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise unsorted samples (at least one).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// `(percentile, value)` of the highest reportable tail.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.n()).map(|p| (p, quantile(&self.sorted, p)))
    }

    /// A named percentile (`p99`, ...), clamped to the reportable tail:
    /// with too few samples beyond `p` the reportable tail (or, failing
    /// that, the median) stands in.
    pub fn at_most(&self, p: f64) -> f64 {
        match self.tail() {
            Some((tail, _)) if tail >= p => quantile(&self.sorted, p),
            Some((_, value)) => value,
            None => self.p50(),
        }
    }

    /// `p50 0.0934 s, p90 0.0991 s, n=87`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!(", p{} {v:.6} {unit}", p * 100.0),
            None => String::new(),
        };
        format!("p50 {:.6} {unit}{tail}, n={}", self.p50(), self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        // 40 samples: rank of p75 is 30, ten samples lie beyond it.
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn named_percentile_falls_back_to_reportable_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail(), Some((0.90, 90.0)));
        assert_eq!(s.at_most(0.90), 90.0);
        // p99 of 100 samples is one sample: the p90 stands in.
        assert_eq!(s.at_most(0.99), 90.0);
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).at_most(0.99), 2.0);
    }
}
