use crate::{Conversion, Regulator, RegulatorError, RegulatorKind};
use hems_units::{Efficiency, Ohms, UnitsError, Volts, Watts};
use std::fmt;

/// A switched-capacitor conversion ratio `num:den` (step-down by
/// `den/num`, e.g. `2:1` halves the input voltage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScRatio {
    num: u8,
    den: u8,
}

impl ScRatio {
    /// Creates a ratio `num:den` with `num >= den >= 1` (step-down only).
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::BadParameter`] when `den == 0` or
    /// `num < den`.
    pub fn new(num: u8, den: u8) -> Result<ScRatio, RegulatorError> {
        if den == 0 || num < den {
            return Err(UnitsError::OutOfRange {
                what: "sc ratio",
                value: num as f64,
                min: den as f64,
                max: 255.0,
            }
            .into());
        }
        Ok(ScRatio { num, den })
    }

    /// The voltage division factor: ideal `V_out = V_in / factor()`.
    pub fn factor(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Ideal (no-load) output voltage from a rail at `v_in`.
    pub fn ideal_output(self, v_in: Volts) -> Volts {
        v_in / self.factor()
    }
}

impl fmt::Display for ScRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.num, self.den)
    }
}

/// Reconfigurable switched-capacitor regulator (paper Fig. 4).
///
/// A flying-capacitor network steps the input down by one of a discrete set
/// of ratios; the output is then modulated slightly below the ideal ratio
/// voltage. Losses:
///
/// * **intrinsic (linear) loss** — charge sharing makes the converter behave
///   like an ideal transformer followed by an LDO from the ratio voltage:
///   `eta_lin = V_out / (V_in / k)`;
/// * **output-impedance droop** — `I_out^2 * R_sc`, with `R_sc ≈ 1/(f_sw C_fly)`;
/// * **proportional switching loss** — bottom-plate parasitics charge on
///   every cycle, costing a fixed fraction `beta` of the through power;
/// * **fixed control power** — clocking and comparators.
///
/// **Calibration** (asserted in tests): with the default ratio set and
/// `V_in = 1.2 V`, `V_out = 0.55 V` (ratio 2:1, `eta_lin = 91.7 %`), the
/// defaults `R_sc = 5 Ω`, `beta = 0.0836`, `P_fixed = 1.527 mW` land on the
/// paper's 67 % at 10 mW (full load) and 64 % at 5 mW (half load).
#[derive(Debug, Clone, PartialEq)]
pub struct ScRegulator {
    ratios: Vec<ScRatio>,
    r_out: Ohms,
    beta: f64,
    p_fixed: Watts,
}

impl ScRegulator {
    /// Builds an SC regulator from its ratio set and loss parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::BadParameter`] when the ratio set is empty,
    /// `r_out` or `p_fixed` are negative/non-finite, or `beta` is outside
    /// `[0, 1)`.
    pub fn new(
        ratios: Vec<ScRatio>,
        r_out: Ohms,
        beta: f64,
        p_fixed: Watts,
    ) -> Result<ScRegulator, RegulatorError> {
        if ratios.is_empty() {
            return Err(UnitsError::BadTable {
                reason: "sc regulator needs at least one ratio",
            }
            .into());
        }
        if !r_out.value().is_finite() || r_out.value() < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "sc output impedance",
                value: r_out.value(),
                min: 0.0,
                max: f64::INFINITY,
            }
            .into());
        }
        if !(0.0..1.0).contains(&beta) {
            return Err(UnitsError::OutOfRange {
                what: "sc proportional loss",
                value: beta,
                min: 0.0,
                max: 1.0,
            }
            .into());
        }
        if !p_fixed.value().is_finite() || p_fixed.value() < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "sc fixed loss",
                value: p_fixed.value(),
                min: 0.0,
                max: f64::INFINITY,
            }
            .into());
        }
        Ok(ScRegulator {
            ratios,
            r_out,
            beta,
            p_fixed,
        })
    }

    /// The paper's 65 nm reconfigurable SC converter: ratios
    /// {1:1, 5:4, 4:3, 3:2, 2:1, 3:1}, calibrated losses (see type docs).
    pub fn paper_65nm() -> ScRegulator {
        let ratios: Vec<ScRatio> = [(1, 1), (5, 4), (4, 3), (3, 2), (2, 1), (3, 1)]
            .iter()
            .filter_map(|&(num, den)| ScRatio::new(num, den).ok())
            .collect();
        ScRegulator::new(ratios, Ohms::new(5.0), 0.0836, Watts::from_micro(1527.0))
            // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's paper_65nm unit tests")
            .expect("reference parameters are valid")
    }

    /// The configured ratio set.
    pub fn ratios(&self) -> &[ScRatio] {
        &self.ratios
    }

    /// Picks the ratio that can serve `v_out` from `v_in` with the best
    /// intrinsic efficiency (largest factor whose ideal output still covers
    /// `v_out`), or `None` when no ratio reaches that low/high.
    pub fn best_ratio(&self, v_in: Volts, v_out: Volts) -> Option<ScRatio> {
        self.ratios
            .iter()
            .copied()
            .filter(|r| r.ideal_output(v_in) >= v_out)
            .max_by(|a, b| a.factor().total_cmp(&b.factor()))
    }
}

impl Regulator for ScRegulator {
    fn kind(&self) -> RegulatorKind {
        RegulatorKind::SwitchedCapacitor
    }

    fn convert(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_out: Watts,
    ) -> Result<Conversion, RegulatorError> {
        if !p_out.value().is_finite() || p_out.value() < 0.0 {
            return Err(RegulatorError::InvalidLoad {
                p_out: p_out.value(),
            });
        }
        if !v_out.is_positive() || v_out >= v_in {
            return Err(RegulatorError::UnsupportedOperatingPoint {
                kind: "SC",
                v_in: v_in.volts(),
                v_out: v_out.volts(),
                reason: "step-down converter needs 0 < v_out < v_in",
            });
        }
        let Some(ratio) = self.best_ratio(v_in, v_out) else {
            return Err(RegulatorError::UnsupportedOperatingPoint {
                kind: "SC",
                v_in: v_in.volts(),
                v_out: v_out.volts(),
                reason: "no configured ratio reaches the requested output",
            });
        };
        let eta_lin = v_out / ratio.ideal_output(v_in);
        let i_out = p_out / v_out;
        let droop = Watts::new(i_out.amps() * i_out.amps() * self.r_out.ohms());
        let p_in = Watts::new(p_out.watts() / eta_lin) + droop + p_out * self.beta + self.p_fixed;
        let efficiency = if p_in.is_positive() {
            Efficiency::saturating(p_out / p_in)
        } else {
            Efficiency::UNITY
        };
        Ok(Conversion { p_in, efficiency })
    }

    fn output_range(&self, v_in: Volts) -> (Volts, Volts) {
        if !v_in.is_positive() {
            return (Volts::ZERO, Volts::ZERO);
        }
        // Anything below the best ideal output is reachable by modulation.
        let max = self
            .ratios
            .iter()
            .map(|r| r.ideal_output(v_in))
            .fold(Volts::ZERO, Volts::max)
            .min(v_in * 0.999);
        (Volts::from_milli(1.0), max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn ratio_validation_and_math() {
        assert!(ScRatio::new(2, 1).is_ok());
        assert!(ScRatio::new(1, 2).is_err());
        assert!(ScRatio::new(1, 0).is_err());
        let r = ScRatio::new(3, 2).unwrap();
        assert_eq!(r.factor(), 1.5);
        assert!((r.ideal_output(Volts::new(1.2)).volts() - 0.8).abs() < 1e-12);
        assert_eq!(r.to_string(), "3:2");
    }

    #[test]
    fn matches_paper_67_percent_full_load() {
        let sc = ScRegulator::paper_65nm();
        let c = sc
            .convert(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(10.0))
            .unwrap();
        assert!(
            (c.efficiency.percent() - 67.0).abs() < 1.0,
            "full-load eta = {}",
            c.efficiency
        );
    }

    #[test]
    fn matches_paper_64_percent_half_load() {
        let sc = ScRegulator::paper_65nm();
        let c = sc
            .convert(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(5.0))
            .unwrap();
        assert!(
            (c.efficiency.percent() - 64.0).abs() < 1.0,
            "half-load eta = {}",
            c.efficiency
        );
    }

    #[test]
    fn best_ratio_prefers_tightest_step_down() {
        let sc = ScRegulator::paper_65nm();
        // 0.55 V from 1.2 V: the 2:1 ratio (ideal 0.6 V) wins over 3:2 (0.8 V).
        let r = sc.best_ratio(Volts::new(1.2), Volts::new(0.55)).unwrap();
        assert_eq!(r, ScRatio::new(2, 1).unwrap());
        // 0.9 V from 1.2 V: 4:3 (ideal 0.9 V) covers it exactly.
        let r = sc.best_ratio(Volts::new(1.2), Volts::new(0.9)).unwrap();
        assert_eq!(r, ScRatio::new(4, 3).unwrap());
        // 0.3 V from 1.2 V: 3:1 (ideal 0.4 V).
        let r = sc.best_ratio(Volts::new(1.2), Volts::new(0.3)).unwrap();
        assert_eq!(r, ScRatio::new(3, 1).unwrap());
    }

    #[test]
    fn efficiency_saw_tooths_across_ratio_boundaries() {
        let sc = ScRegulator::paper_65nm();
        let eta = |v: f64| {
            sc.efficiency(Volts::new(1.2), Volts::new(v), Watts::from_milli(10.0))
                .unwrap()
                .ratio()
        };
        // Just below the 2:1 ideal (0.6 V) efficiency peaks; just above it
        // the converter falls back to 3:2 and efficiency drops.
        assert!(eta(0.59) > eta(0.62));
        // It recovers approaching the 3:2 ideal (0.8 V).
        assert!(eta(0.78) > eta(0.62));
    }

    #[test]
    fn light_load_efficiency_collapses() {
        // This is the effect that makes bypass win at 25% light (Fig. 7a).
        let sc = ScRegulator::paper_65nm();
        let heavy = sc
            .efficiency(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(10.0))
            .unwrap();
        let light = sc
            .efficiency(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(0.5))
            .unwrap();
        assert!(light.ratio() < 0.35, "light-load eta {light}");
        assert!(heavy.ratio() > 0.6);
    }

    #[test]
    fn rejects_step_up_and_unreachable_points() {
        let sc = ScRegulator::paper_65nm();
        assert!(matches!(
            sc.convert(Volts::new(0.5), Volts::new(0.6), Watts::from_milli(1.0)),
            Err(RegulatorError::UnsupportedOperatingPoint { .. })
        ));
        assert!(matches!(
            sc.convert(Volts::new(1.2), Volts::new(-0.1), Watts::from_milli(1.0)),
            Err(RegulatorError::UnsupportedOperatingPoint { .. })
        ));
    }

    #[test]
    fn constructor_validates() {
        assert!(ScRegulator::new(vec![], Ohms::new(5.0), 0.1, Watts::ZERO).is_err());
        let r = vec![ScRatio::new(2, 1).unwrap()];
        assert!(ScRegulator::new(r.clone(), Ohms::new(-1.0), 0.1, Watts::ZERO).is_err());
        assert!(ScRegulator::new(r.clone(), Ohms::new(5.0), 1.0, Watts::ZERO).is_err());
        assert!(ScRegulator::new(r, Ohms::new(5.0), 0.1, Watts::new(-1.0)).is_err());
    }

    #[test]
    fn output_range_covers_paper_operating_band() {
        let sc = ScRegulator::paper_65nm();
        let (lo, hi) = sc.output_range(Volts::new(1.2));
        assert!(lo.volts() <= 0.3);
        assert!(hi.volts() >= 0.8);
        assert_eq!(sc.output_range(Volts::ZERO), (Volts::ZERO, Volts::ZERO));
    }

    #[test]
    fn efficiency_bounded_by_intrinsic_ratio() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v_out, p_mw) = (rng.range_f64(0.2, 1.0), rng.range_f64(0.1, 20.0));
            let sc = ScRegulator::paper_65nm();
            let v_in = Volts::new(1.2);
            let Some(ratio) = sc.best_ratio(v_in, Volts::new(v_out)) else {
                continue;
            };
            let eta_lin = v_out / ratio.ideal_output(v_in).volts();
            let eta = sc
                .efficiency(v_in, Volts::new(v_out), Watts::from_milli(p_mw))
                .unwrap();
            assert!(eta.ratio() <= eta_lin + 1e-12, "v_out {v_out} p {p_mw} mW");
        }
    }

    #[test]
    fn p_in_strictly_increasing_in_load() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let p = rng.range_f64(0.1, 10.0);
            let sc = ScRegulator::paper_65nm();
            let v_in = Volts::new(1.2);
            let v_out = Volts::new(0.55);
            let a = sc.convert(v_in, v_out, Watts::from_milli(p)).unwrap().p_in;
            let b = sc
                .convert(v_in, v_out, Watts::from_milli(p * 1.1))
                .unwrap()
                .p_in;
            assert!(b > a, "p {p} mW");
        }
    }
}
