use crate::CpuError;
use hems_units::{solve, Hertz, UnitsError, Volts};

/// Alpha-power-law frequency model: `f(V) = k (V - Vt)^α / V`.
///
/// This is the standard velocity-saturated MOSFET delay model; `α = 2`
/// recovers the classic quadratic law, `α → 1` models strong velocity
/// saturation. Below the threshold voltage `Vt` the model returns zero (the
/// logic does not toggle at this supply in the paper's design).
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyModel {
    k: Hertz,
    v_threshold: Volts,
    alpha: f64,
}

impl FrequencyModel {
    /// Builds a frequency model.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::BadParameter`] when `k` or `Vt` is non-positive
    /// or `alpha` is outside `[1, 3]`.
    pub fn new(k: Hertz, v_threshold: Volts, alpha: f64) -> Result<FrequencyModel, CpuError> {
        if !k.is_positive() {
            return Err(UnitsError::OutOfRange {
                what: "frequency scale k",
                value: k.value(),
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            }
            .into());
        }
        if !v_threshold.is_positive() {
            return Err(UnitsError::OutOfRange {
                what: "threshold voltage",
                value: v_threshold.value(),
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            }
            .into());
        }
        if !(1.0..=3.0).contains(&alpha) {
            return Err(UnitsError::OutOfRange {
                what: "alpha exponent",
                value: alpha,
                min: 1.0,
                max: 3.0,
            }
            .into());
        }
        Ok(FrequencyModel {
            k,
            v_threshold,
            alpha,
        })
    }

    /// The paper's 65 nm image processor: `k = 3.333 GHz`, `Vt = 0.4 V`,
    /// `α = 2` — 1.2 GHz at 1.0 V, 66.7 MHz at 0.5 V (Fig. 11a).
    pub fn paper_65nm() -> FrequencyModel {
        FrequencyModel::new(Hertz::from_giga(10.0 / 3.0), Volts::new(0.4), 2.0)
            // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's paper_65nm unit tests")
            .expect("reference parameters are valid")
    }

    /// Threshold voltage below which the core cannot clock.
    pub fn v_threshold(&self) -> Volts {
        self.v_threshold
    }

    /// Maximum clock frequency at supply `vdd`; zero at or below threshold.
    pub fn max_frequency(&self, vdd: Volts) -> Hertz {
        let v = vdd.volts();
        let vt = self.v_threshold.volts();
        if v <= vt {
            return Hertz::ZERO;
        }
        Hertz::new(self.k.hertz() * (v - vt).powf(self.alpha) / v)
    }

    /// The lowest supply voltage at which `target` is reachable, searched on
    /// `(Vt, v_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::FrequencyUnreachable`] when even `v_max` is too
    /// slow, and propagates solver failures.
    pub fn voltage_for_frequency(&self, target: Hertz, v_max: Volts) -> Result<Volts, CpuError> {
        if !target.is_positive() {
            return Ok(self.v_threshold + Volts::from_milli(1.0));
        }
        let f_max = self.max_frequency(v_max);
        if target > f_max {
            return Err(CpuError::FrequencyUnreachable {
                requested: target.hertz(),
                max: f_max.hertz(),
            });
        }
        let lo = self.v_threshold.volts() + 1e-6;
        let v = solve::bisect(
            |v| self.max_frequency(Volts::new(v)).hertz() - target.hertz(),
            lo,
            v_max.volts(),
            1e-9,
        )?;
        Ok(Volts::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn calibration_points_match_paper() {
        let m = FrequencyModel::paper_65nm();
        let at_1v = m.max_frequency(Volts::new(1.0));
        assert!(
            (at_1v.hertz() / 1e9 - 1.2).abs() < 0.01,
            "f(1.0 V) = {} GHz",
            at_1v.hertz() / 1e9
        );
        let at_half = m.max_frequency(Volts::new(0.5));
        assert!(
            (at_half.to_mega() - 66.67).abs() < 0.5,
            "f(0.5 V) = {} MHz",
            at_half.to_mega()
        );
    }

    #[test]
    fn below_threshold_is_zero() {
        let m = FrequencyModel::paper_65nm();
        assert_eq!(m.max_frequency(Volts::new(0.4)), Hertz::ZERO);
        assert_eq!(m.max_frequency(Volts::new(0.1)), Hertz::ZERO);
        assert_eq!(m.max_frequency(Volts::ZERO), Hertz::ZERO);
    }

    #[test]
    fn voltage_for_frequency_inverts_model() {
        let m = FrequencyModel::paper_65nm();
        for mhz in [10.0, 66.67, 300.0, 1000.0] {
            let v = m
                .voltage_for_frequency(Hertz::from_mega(mhz), Volts::new(1.0))
                .unwrap();
            let back = m.max_frequency(v);
            assert!(
                (back.to_mega() - mhz).abs() < 0.01,
                "round trip {mhz} MHz -> {v} -> {} MHz",
                back.to_mega()
            );
        }
    }

    #[test]
    fn unreachable_frequency_is_an_error() {
        let m = FrequencyModel::paper_65nm();
        let err = m
            .voltage_for_frequency(Hertz::from_giga(2.0), Volts::new(1.0))
            .unwrap_err();
        assert!(matches!(err, CpuError::FrequencyUnreachable { .. }));
    }

    #[test]
    fn zero_target_returns_near_threshold() {
        let m = FrequencyModel::paper_65nm();
        let v = m
            .voltage_for_frequency(Hertz::ZERO, Volts::new(1.0))
            .unwrap();
        assert!((v.volts() - 0.401).abs() < 1e-9);
    }

    #[test]
    fn constructor_validates() {
        assert!(FrequencyModel::new(Hertz::ZERO, Volts::new(0.4), 2.0).is_err());
        assert!(FrequencyModel::new(Hertz::from_giga(1.0), Volts::ZERO, 2.0).is_err());
        assert!(FrequencyModel::new(Hertz::from_giga(1.0), Volts::new(0.4), 0.5).is_err());
        assert!(FrequencyModel::new(Hertz::from_giga(1.0), Volts::new(0.4), 3.5).is_err());
    }

    #[test]
    fn frequency_is_monotone_above_threshold() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v, dv) = (rng.range_f64(0.41, 1.2), rng.range_f64(0.001, 0.2));
            let m = FrequencyModel::paper_65nm();
            let f1 = m.max_frequency(Volts::new(v));
            let f2 = m.max_frequency(Volts::new(v + dv));
            assert!(f2 > f1, "v {v} dv {dv}");
        }
    }

    #[test]
    fn inverse_is_minimal_voltage() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let mhz = rng.range_f64(1.0, 1100.0);
            let m = FrequencyModel::paper_65nm();
            let v = m
                .voltage_for_frequency(Hertz::from_mega(mhz), Volts::new(1.0))
                .unwrap();
            // A hair below v the target must be unreachable.
            let below = m.max_frequency(v - Volts::from_milli(2.0));
            assert!(below.to_mega() < mhz, "f {mhz} MHz");
        }
    }
}
