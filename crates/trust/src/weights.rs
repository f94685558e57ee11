//! The neighbour-opinion weight law of Eq. (2): `w_Ii = a_I^(b_Ii · t_Ii)`.
//!
//! Nodes that have never interacted with the estimating node get weight 1;
//! neighbours get a weight that grows with trust, so better-behaved
//! neighbours' direct reports count for more. The paper's salient
//! features (Section 4.1.2) pin down the parameter regime:
//!
//! * weights are always ≥ 1 — a badly-reputed neighbour degrades to the
//!   weight of a stranger, never below;
//! * `a` and `b` are per-node/per-edge tunables, held constant in the
//!   paper (and here) for simplicity.
//!
//! This forces `a ≥ 1` and `b ≥ 0`, which [`WeightParams::new`] validates.

use crate::error::TrustError;
use crate::value::TrustValue;

/// Parameters `(a, b)` of the weight law `w = a^(b·t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightParams {
    a: f64,
    b: f64,
}

impl Default for WeightParams {
    /// A moderate default (`a = 2`, `b = 2`): a fully trusted neighbour's
    /// opinion counts four times a stranger's.
    fn default() -> Self {
        Self { a: 2.0, b: 2.0 }
    }
}

impl WeightParams {
    /// Validated constructor; requires `a ≥ 1`, `b ≥ 0`, both finite, so
    /// that `w(t) ≥ 1` for every `t ∈ [0, 1]`.
    pub fn new(a: f64, b: f64) -> Result<Self, TrustError> {
        if !a.is_finite() || !b.is_finite() {
            return Err(TrustError::InvalidWeightParams(format!(
                "a = {a}, b = {b} must be finite"
            )));
        }
        if a < 1.0 {
            return Err(TrustError::InvalidWeightParams(format!(
                "a = {a} < 1 would allow weights below 1"
            )));
        }
        if b < 0.0 {
            return Err(TrustError::InvalidWeightParams(format!(
                "b = {b} < 0 would invert the trust ordering"
            )));
        }
        Ok(Self { a, b })
    }

    /// The *neutral* law `w ≡ 1`, which degenerates the globally calibrated
    /// local reputation (Eq. 5) to the plain global reputation (Eq. 1).
    pub fn neutral() -> Self {
        Self { a: 1.0, b: 0.0 }
    }

    /// Base `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Exponent scale `b`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Evaluate `w(t) = a^(b·t)`.
    #[inline]
    pub fn weight(&self, t: TrustValue) -> f64 {
        self.a.powf(self.b * t.get())
    }

    /// Maximum possible weight, `w(1) = a^b`.
    pub fn max_weight(&self) -> f64 {
        self.a.powf(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    #[test]
    fn validation() {
        assert!(WeightParams::new(2.0, 3.0).is_ok());
        assert!(WeightParams::new(1.0, 0.0).is_ok());
        assert!(WeightParams::new(0.5, 1.0).is_err());
        assert!(WeightParams::new(2.0, -1.0).is_err());
        assert!(WeightParams::new(f64::NAN, 1.0).is_err());
        assert!(WeightParams::new(2.0, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_trust_gives_unit_weight() {
        let w = WeightParams::default();
        assert_eq!(w.weight(TrustValue::ZERO), 1.0);
    }

    #[test]
    fn full_trust_gives_max_weight() {
        let w = WeightParams::new(2.0, 2.0).unwrap();
        assert!((w.weight(TrustValue::ONE) - 4.0).abs() < 1e-12);
        assert!((w.max_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn neutral_law_is_identity_one() {
        let w = WeightParams::neutral();
        for t in [0.0, 0.3, 1.0] {
            assert_eq!(w.weight(tv(t)), 1.0);
        }
    }

    #[test]
    fn weight_is_monotone_in_trust() {
        let w = WeightParams::new(3.0, 1.5).unwrap();
        let mut prev = 0.0;
        for i in 0..=10 {
            let t = tv(i as f64 / 10.0);
            let cur = w.weight(t);
            assert!(cur >= prev, "w({t}) = {cur} < {prev}");
            prev = cur;
        }
    }

    #[test]
    fn t_zero_is_unit_weight_for_any_params() {
        // w(0) = a^0 = 1 regardless of how aggressive the law is.
        for (a, b) in [(1.0, 0.0), (1.0, 5.0), (10.0, 0.0), (1e6, 50.0)] {
            let w = WeightParams::new(a, b).unwrap();
            assert_eq!(w.weight(TrustValue::ZERO), 1.0, "a={a}, b={b}");
        }
    }

    #[test]
    fn a_one_is_unit_weight_for_any_trust_and_exponent() {
        // 1^(b·t) = 1: with a = 1 the law cannot distinguish neighbours,
        // whatever b is.
        for b in [0.0, 1.0, 100.0, 1e8] {
            let w = WeightParams::new(1.0, b).unwrap();
            for t in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(w.weight(tv(t)), 1.0, "b={b}, t={t}");
            }
            assert_eq!(w.max_weight(), 1.0, "b={b}");
        }
    }

    #[test]
    fn extreme_exponents_overflow_to_infinity_not_nan() {
        // b·t can push a^(b·t) past f64::MAX; the law must degrade to
        // +inf (which downstream clamps), never NaN, and stay monotone.
        let w = WeightParams::new(10.0, 1e4).unwrap();
        let huge = w.weight(TrustValue::ONE);
        assert!(huge.is_infinite() && huge > 0.0);
        assert!(!w.weight(tv(0.5)).is_nan());
        assert!(w.weight(TrustValue::ZERO) == 1.0);
        // A large-but-representable case stays finite and ordered.
        let w2 = WeightParams::new(2.0, 1000.0).unwrap();
        let mid = w2.weight(tv(0.25));
        assert!(mid.is_finite() && mid > 1.0);
        assert!(w2.weight(tv(0.5)) > mid);
    }

    #[test]
    fn tiny_positive_exponent_stays_just_above_one() {
        let w = WeightParams::new(2.0, 1e-12).unwrap();
        let full = w.weight(TrustValue::ONE);
        assert!(full > 1.0, "w(1) = {full} should exceed 1");
        assert!(full - 1.0 < 1e-9, "w(1) = {full} should be barely above 1");
    }

    proptest! {
        #[test]
        fn weight_always_at_least_one(
            a in 1.0..10.0f64,
            b in 0.0..5.0f64,
            t in 0.0..=1.0f64,
        ) {
            let w = WeightParams::new(a, b).unwrap();
            prop_assert!(w.weight(tv(t)) >= 1.0);
            prop_assert!(w.weight(tv(t)) <= w.max_weight() + 1e-12);
        }
    }
}
