//! The gossip pair `(y, g)` of Section 4.1.1.
//!
//! Every node carries a *gossip value* `y` and a *gossip weight* `g`;
//! push-sum repeatedly splits and re-sums these pairs, and the tracked
//! quantity is the ratio `y / g`. When `g = 0` the paper uses the sentinel
//! ratio `u = 10` (an impossible value for trust ratios, which live in
//! `[0, 1]`).

use std::ops::{Add, AddAssign};

/// The paper's sentinel ratio for nodes whose gossip weight is still zero.
pub(crate) const RATIO_SENTINEL: f64 = 10.0;

/// A push-sum gossip pair `(y, g)`.
///
/// ```
/// use dg_gossip::GossipPair;
///
/// // An originator carries its value with unit gossip weight …
/// let p = GossipPair::originator(0.6);
/// assert_eq!(p.ratio(), 0.6);
///
/// // … splitting into k+1 shares preserves both the tracked ratio and
/// // the total mass (the push-sum invariant).
/// let share = p.share(3);
/// assert_eq!(share.ratio(), 0.6);
/// let reassembled = share + share + share;
/// assert!((reassembled.value - p.value).abs() < 1e-12);
/// assert!((reassembled.weight - p.weight).abs() < 1e-12);
///
/// // Zero-weight pairs report the paper's sentinel ratio u = 10.
/// assert_eq!(GossipPair::passive(0.6).ratio(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GossipPair {
    /// Gossip value `y` (starts as the local feedback `t_ij`, or 0).
    pub value: f64,
    /// Gossip weight `g` (starts as 1 for designated originators, else 0).
    pub weight: f64,
}

impl GossipPair {
    /// The additive identity `(0, 0)`.
    pub const ZERO: GossipPair = GossipPair {
        value: 0.0,
        weight: 0.0,
    };

    /// Pair carrying feedback `y` with unit gossip weight.
    pub fn originator(value: f64) -> Self {
        Self { value, weight: 1.0 }
    }

    /// Pair carrying feedback `y` with zero gossip weight (used by
    /// Algorithm 2, where only one node gets weight 1).
    pub fn passive(value: f64) -> Self {
        Self { value, weight: 0.0 }
    }

    /// The tracked ratio `y / g`, or the paper's sentinel 10 when `g = 0`.
    #[inline]
    pub fn ratio(&self) -> f64 {
        if self.weight == 0.0 {
            RATIO_SENTINEL
        } else {
            self.value / self.weight
        }
    }

    /// Split into `shares` equal parts (`shares ≥ 1`): the `(1/(k+1))·pair`
    /// share sent to each of the `k` chosen neighbours and to the node
    /// itself.
    #[inline]
    pub fn share(&self, shares: usize) -> GossipPair {
        let f = 1.0 / shares as f64;
        GossipPair {
            value: self.value * f,
            weight: self.weight * f,
        }
    }

    /// Whether both components are exactly zero (nothing to diffuse yet).
    pub fn is_zero(&self) -> bool {
        self.value == 0.0 && self.weight == 0.0
    }
}

impl Add for GossipPair {
    type Output = GossipPair;
    fn add(self, rhs: GossipPair) -> GossipPair {
        GossipPair {
            value: self.value + rhs.value,
            weight: self.weight + rhs.weight,
        }
    }
}

impl AddAssign for GossipPair {
    fn add_assign(&mut self, rhs: GossipPair) {
        self.value += rhs.value;
        self.weight += rhs.weight;
    }
}

impl std::iter::Sum for GossipPair {
    fn sum<I: Iterator<Item = GossipPair>>(iter: I) -> GossipPair {
        iter.fold(GossipPair::ZERO, |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ratio_uses_sentinel_for_zero_weight() {
        assert_eq!(GossipPair::passive(0.7).ratio(), RATIO_SENTINEL);
        assert_eq!(GossipPair::ZERO.ratio(), RATIO_SENTINEL);
        assert!((GossipPair::originator(0.7).ratio() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn share_splits_mass_exactly() {
        let p = GossipPair::originator(0.9);
        let s = p.share(3);
        let reassembled = s + s + s;
        assert!((reassembled.value - p.value).abs() < 1e-12);
        assert!((reassembled.weight - p.weight).abs() < 1e-12);
    }

    #[test]
    fn share_preserves_ratio() {
        let p = GossipPair::originator(0.42);
        assert!((p.share(5).ratio() - p.ratio()).abs() < 1e-12);
    }

    #[test]
    fn sum_of_pairs() {
        let pairs = [
            GossipPair::originator(0.2),
            GossipPair::originator(0.4),
            GossipPair::passive(0.9),
        ];
        let total: GossipPair = pairs.into_iter().sum();
        assert!((total.value - 1.5).abs() < 1e-12);
        assert!((total.weight - 2.0).abs() < 1e-12);
        assert!((total.ratio() - 0.75).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn share_is_mass_conserving(v in -10.0..10.0f64, w in 0.0..10.0f64, k in 1usize..20) {
            let p = GossipPair { value: v, weight: w };
            let s = p.share(k);
            let total = (0..k).map(|_| s).sum::<GossipPair>();
            prop_assert!((total.value - v).abs() < 1e-9);
            prop_assert!((total.weight - w).abs() < 1e-9);
        }
    }
}
