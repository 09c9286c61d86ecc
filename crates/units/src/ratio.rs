use crate::{UnitsError, Watts};
use std::fmt;

/// A power-conversion efficiency in `[0, 1]`.
///
/// The constructor validates the range, so every `Efficiency` in the
/// workspace is known-good by construction. Regulator models return one of
/// these and schedulers combine them without re-checking.
///
/// ```
/// use hems_units::{Efficiency, Watts};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eta = Efficiency::new(0.67)?;
/// let delivered = eta.apply(Watts::from_milli(10.0));
/// assert!((delivered.to_milli() - 6.7).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Efficiency(f64);

impl Efficiency {
    /// A perfect (lossless) conversion.
    pub const UNITY: Efficiency = Efficiency(1.0);

    /// Creates an efficiency, validating that it lies in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::OutOfRange`] when `value` is outside `[0, 1]`
    /// and [`UnitsError::NotFinite`] when it is NaN or infinite.
    pub fn new(value: f64) -> Result<Self, UnitsError> {
        if !value.is_finite() {
            return Err(UnitsError::NotFinite {
                what: "efficiency",
                value,
            });
        }
        if !(0.0..=1.0).contains(&value) {
            return Err(UnitsError::OutOfRange {
                what: "efficiency",
                value,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(Efficiency(value))
    }

    /// Creates an efficiency, clamping out-of-range finite values into `[0, 1]`.
    ///
    /// Useful inside loss models whose intermediate algebra can slightly
    /// overshoot the physical range.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn saturating(value: f64) -> Self {
        assert!(!value.is_nan(), "efficiency must not be NaN");
        Efficiency(value.clamp(0.0, 1.0))
    }

    /// The raw ratio in `[0, 1]`.
    #[inline]
    pub const fn ratio(self) -> f64 {
        self.0
    }

    /// The ratio expressed in percent.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Output power for a given input power: `P_out = eta * P_in`.
    #[inline]
    pub fn apply(self, input: Watts) -> Watts {
        input * self.0
    }

    /// Input power required to deliver `output`: `P_in = P_out / eta`.
    ///
    /// Returns an infinite power when the efficiency is zero and the output
    /// demand is positive — callers treat that as "cannot be served".
    #[inline]
    pub fn input_for_output(self, output: Watts) -> Watts {
        output / self.0
    }

    /// Composes two conversion stages in series.
    #[inline]
    pub fn compose(self, other: Efficiency) -> Efficiency {
        Efficiency(self.0 * other.0)
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*}%", precision, self.percent())
        } else {
            write!(f, "{:.1}%", self.percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShiftRng;

    #[test]
    fn constructor_validates_range() {
        assert!(Efficiency::new(0.0).is_ok());
        assert!(Efficiency::new(1.0).is_ok());
        assert!(Efficiency::new(-0.01).is_err());
        assert!(Efficiency::new(1.01).is_err());
        assert!(Efficiency::new(f64::NAN).is_err());
        assert!(Efficiency::new(f64::INFINITY).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Efficiency::saturating(1.7).ratio(), 1.0);
        assert_eq!(Efficiency::saturating(-0.2).ratio(), 0.0);
        assert_eq!(Efficiency::saturating(0.5).ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn saturating_rejects_nan() {
        let _ = Efficiency::saturating(f64::NAN);
    }

    #[test]
    fn apply_and_invert() {
        let eta = Efficiency::new(0.5).unwrap();
        let out = eta.apply(Watts::new(10.0));
        assert_eq!(out.watts(), 5.0);
        let input = eta.input_for_output(Watts::new(5.0));
        assert_eq!(input.watts(), 10.0);
    }

    #[test]
    fn zero_efficiency_demands_infinite_input() {
        let eta = Efficiency::new(0.0).unwrap();
        assert!(eta.input_for_output(Watts::new(1.0)).watts().is_infinite());
    }

    #[test]
    fn composition_multiplies() {
        let a = Efficiency::new(0.8).unwrap();
        let b = Efficiency::new(0.5).unwrap();
        assert!((a.compose(b).ratio() - 0.4).abs() < 1e-15);
    }

    #[test]
    fn display_shows_percent() {
        let eta = Efficiency::new(0.675).unwrap();
        assert_eq!(format!("{eta}"), "67.5%");
        assert_eq!(format!("{eta:.0}"), "68%");
    }

    #[test]
    fn apply_then_invert_round_trips() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (eta, p) = (rng.range_f64(0.01, 1.0), rng.range_f64(1e-9, 100.0));
            let e = Efficiency::new(eta).unwrap();
            let back = e.input_for_output(e.apply(Watts::new(p)));
            assert!((back.watts() - p).abs() <= 1e-9 * p, "eta {eta} p {p}");
        }
    }

    #[test]
    fn compose_never_exceeds_either_stage() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (a, b) = (rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0));
            let c = Efficiency::new(a)
                .unwrap()
                .compose(Efficiency::new(b).unwrap());
            assert!(c.ratio() <= a + 1e-15, "a {a} b {b}");
            assert!(c.ratio() <= b + 1e-15, "a {a} b {b}");
        }
    }
}
