//! Validated trust scores.
//!
//! "Trust value should always lie in between zero and one" (Section 4);
//! `t = 1` is complete trust, `t = 0` none. New, never-seen peers start at
//! 0 to blunt whitewashing (Section 4.1.2).

use crate::error::TrustError;
use std::fmt;

/// A trust score in `[0, 1]`.
///
/// The inner value is guaranteed finite and in range by every constructor,
/// so downstream arithmetic (gossip mass, weight exponents) never sees NaN
/// or out-of-range inputs.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TrustValue(f64);

impl TrustValue {
    /// No trust — also the initial value for unknown peers (anti-whitewash).
    pub const ZERO: TrustValue = TrustValue(0.0);
    /// Complete trust.
    pub const ONE: TrustValue = TrustValue(1.0);

    /// Construct, rejecting non-finite or out-of-range values.
    pub fn new(v: f64) -> Result<Self, TrustError> {
        if !v.is_finite() {
            return Err(TrustError::NotFinite(v));
        }
        if !(0.0..=1.0).contains(&v) {
            return Err(TrustError::OutOfRange(v));
        }
        Ok(TrustValue(v))
    }

    /// Construct by clamping a finite value into `[0, 1]`.
    ///
    /// NaN clamps to 0 (the paper's conservative default for "no basis
    /// for trust").
    pub fn saturating(v: f64) -> Self {
        if v.is_nan() {
            return TrustValue(0.0);
        }
        TrustValue(v.clamp(0.0, 1.0))
    }

    /// Raw score.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Linear interpolation `self + rate·(target − self)`, the EWMA step
    /// used by the estimators. `rate` is clamped to `[0, 1]`.
    pub(crate) fn blend_towards(self, target: TrustValue, rate: f64) -> TrustValue {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        TrustValue(self.0 + rate * (target.0 - self.0))
    }
}

impl fmt::Display for TrustValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validates_range() {
        assert!(TrustValue::new(0.0).is_ok());
        assert!(TrustValue::new(1.0).is_ok());
        assert!(TrustValue::new(0.5).is_ok());
        assert_eq!(TrustValue::new(-0.1), Err(TrustError::OutOfRange(-0.1)));
        assert_eq!(TrustValue::new(1.1), Err(TrustError::OutOfRange(1.1)));
        assert!(matches!(
            TrustValue::new(f64::NAN),
            Err(TrustError::NotFinite(_))
        ));
        assert!(matches!(
            TrustValue::new(f64::INFINITY),
            Err(TrustError::NotFinite(_))
        ));
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(TrustValue::saturating(-3.0).get(), 0.0);
        assert_eq!(TrustValue::saturating(42.0).get(), 1.0);
        assert_eq!(TrustValue::saturating(f64::NAN).get(), 0.0);
        assert_eq!(TrustValue::saturating(0.25).get(), 0.25);
    }

    #[test]
    fn blend_moves_towards_target() {
        let t = TrustValue::ZERO.blend_towards(TrustValue::ONE, 0.3);
        assert!((t.get() - 0.3).abs() < 1e-12);
        let t2 = t.blend_towards(TrustValue::ONE, 1.0);
        assert_eq!(t2, TrustValue::ONE);
        let same = t.blend_towards(TrustValue::ZERO, 0.0);
        assert_eq!(same, t);
    }

    #[test]
    fn blend_with_nan_rate_is_identity() {
        let t = TrustValue(0.5).blend_towards(TrustValue::ONE, f64::NAN);
        assert_eq!(t, TrustValue(0.5));
    }

    proptest! {
        #[test]
        fn blend_stays_in_range(a in 0.0..=1.0f64, b in 0.0..=1.0f64, r in -1.0..2.0f64) {
            let t = TrustValue::new(a).unwrap()
                .blend_towards(TrustValue::new(b).unwrap(), r);
            prop_assert!((0.0..=1.0).contains(&t.get()));
        }

        #[test]
        fn saturating_always_valid(v in proptest::num::f64::ANY) {
            let t = TrustValue::saturating(v);
            prop_assert!((0.0..=1.0).contains(&t.get()));
        }
    }
}
