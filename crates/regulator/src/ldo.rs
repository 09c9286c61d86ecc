use crate::{Conversion, Regulator, RegulatorError, RegulatorKind};
use hems_units::{Amps, Efficiency, UnitsError, Volts, Watts};

/// Linear / low-dropout regulator (paper Fig. 3).
///
/// A pass transistor drops `Vin - Vout` resistively, so the efficiency is
/// essentially the division ratio:
///
/// ```text
/// eta = (I_load * V_out) / ((I_load + I_q) * V_in)
/// ```
///
/// with a small quiescent current `I_q` that dominates at very light loads.
///
/// **Calibration.** With `V_in = 1.2 V`, `V_out = 0.55 V` and the paper's
/// ~10 mW full load, `eta = 0.55/1.2 ≈ 45.8 %` — Fig. 3's "45 % @ 0.55 V".
/// The default quiescent current (20 µA) and dropout (50 mV) are typical of
/// fully-integrated 65 nm LDOs.
#[derive(Debug, Clone, PartialEq)]
pub struct Ldo {
    v_dropout: Volts,
    i_quiescent: Amps,
}

impl Ldo {
    /// Builds an LDO from its dropout voltage and quiescent current.
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::BadParameter`] for negative or non-finite
    /// parameters.
    pub fn new(v_dropout: Volts, i_quiescent: Amps) -> Result<Ldo, RegulatorError> {
        for (what, v) in [
            ("ldo dropout voltage", v_dropout.value()),
            ("ldo quiescent current", i_quiescent.value()),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(UnitsError::OutOfRange {
                    what,
                    value: v,
                    min: 0.0,
                    max: f64::INFINITY,
                }
                .into());
            }
        }
        Ok(Ldo {
            v_dropout,
            i_quiescent,
        })
    }

    /// The paper's 65 nm LDO: 50 mV dropout, 20 µA quiescent current.
    pub fn paper_65nm() -> Ldo {
        Ldo::new(Volts::from_milli(50.0), Amps::from_micro(20.0))
            // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's unit tests")
            .expect("reference parameters are valid")
    }

    /// Dropout voltage.
    pub fn v_dropout(&self) -> Volts {
        self.v_dropout
    }

    /// Quiescent current.
    pub fn i_quiescent(&self) -> Amps {
        self.i_quiescent
    }
}

impl Regulator for Ldo {
    fn kind(&self) -> RegulatorKind {
        RegulatorKind::Ldo
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
        if !v_out.is_positive() || v_out > v_in - self.v_dropout {
            return Err(RegulatorError::UnsupportedOperatingPoint {
                kind: "LDO",
                v_in: v_in.volts(),
                v_out: v_out.volts(),
                reason: "output must be positive and below input minus dropout",
            });
        }
        let i_load = p_out / v_out;
        let p_in = (i_load + self.i_quiescent) * v_in;
        let efficiency = if p_in.is_positive() {
            Efficiency::saturating(p_out / p_in)
        } else {
            Efficiency::UNITY
        };
        Ok(Conversion { p_in, efficiency })
    }

    fn output_range(&self, v_in: Volts) -> (Volts, Volts) {
        let max = v_in - self.v_dropout;
        if max.is_positive() {
            (Volts::from_milli(1.0), max)
        } else {
            (Volts::ZERO, Volts::ZERO)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn matches_paper_45_percent_at_half_volt() {
        let ldo = Ldo::paper_65nm();
        let c = ldo
            .convert(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(10.0))
            .unwrap();
        assert!(
            (c.efficiency.percent() - 45.0).abs() < 1.5,
            "eta = {}",
            c.efficiency
        );
    }

    #[test]
    fn efficiency_scales_linearly_with_vout() {
        let ldo = Ldo::paper_65nm();
        let eta = |v: f64| {
            ldo.efficiency(Volts::new(1.2), Volts::new(v), Watts::from_milli(10.0))
                .unwrap()
                .ratio()
        };
        // eta(v) ~ v / 1.2, so eta(0.8)/eta(0.4) ~ 2.
        let ratio = eta(0.8) / eta(0.4);
        assert!((ratio - 2.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn quiescent_current_dominates_at_light_load() {
        let ldo = Ldo::paper_65nm();
        let heavy = ldo
            .efficiency(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(10.0))
            .unwrap();
        let feather = ldo
            .efficiency(Volts::new(1.2), Volts::new(0.55), Watts::from_micro(10.0))
            .unwrap();
        assert!(feather.ratio() < heavy.ratio() * 0.8);
    }

    #[test]
    fn rejects_dropout_violation() {
        let ldo = Ldo::paper_65nm();
        assert!(matches!(
            ldo.convert(Volts::new(0.58), Volts::new(0.55), Watts::from_milli(1.0)),
            Err(RegulatorError::UnsupportedOperatingPoint { .. })
        ));
        assert!(ldo
            .convert(Volts::new(0.61), Volts::new(0.55), Watts::from_milli(1.0))
            .is_ok());
    }

    #[test]
    fn rejects_bad_load_and_bad_params() {
        let ldo = Ldo::paper_65nm();
        assert!(matches!(
            ldo.convert(Volts::new(1.2), Volts::new(0.55), Watts::new(-1.0)),
            Err(RegulatorError::InvalidLoad { .. })
        ));
        assert!(Ldo::new(Volts::new(-0.1), Amps::ZERO).is_err());
        assert!(Ldo::new(Volts::new(0.05), Amps::new(f64::NAN)).is_err());
    }

    #[test]
    fn output_range_respects_rail() {
        let ldo = Ldo::paper_65nm();
        let (lo, hi) = ldo.output_range(Volts::new(1.2));
        assert!(lo.is_positive());
        assert!((hi.volts() - 1.15).abs() < 1e-12);
        let (lo, hi) = ldo.output_range(Volts::new(0.03));
        assert_eq!((lo, hi), (Volts::ZERO, Volts::ZERO));
    }

    #[test]
    fn zero_load_draws_only_quiescent() {
        let ldo = Ldo::paper_65nm();
        let c = ldo
            .convert(Volts::new(1.2), Volts::new(0.55), Watts::ZERO)
            .unwrap();
        assert!((c.p_in.to_micro() - 24.0).abs() < 1e-6); // 20 uA * 1.2 V
        assert_eq!(c.efficiency.ratio(), 0.0);
    }

    #[test]
    fn deliverable_output_inverts_convert() {
        let ldo = Ldo::paper_65nm();
        let budget = Watts::from_milli(5.0);
        let p_out = ldo
            .deliverable_output(Volts::new(1.2), Volts::new(0.55), budget)
            .unwrap();
        let round = ldo
            .convert(Volts::new(1.2), Volts::new(0.55), p_out)
            .unwrap();
        assert!((round.p_in.watts() - budget.watts()).abs() < 1e-9);
    }

    #[test]
    fn efficiency_never_exceeds_division_ratio() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v_out, p_mw) = (rng.range_f64(0.1, 1.0), rng.range_f64(0.01, 50.0));
            let ldo = Ldo::paper_65nm();
            let v_in = Volts::new(1.2);
            let eta = ldo
                .efficiency(v_in, Volts::new(v_out), Watts::from_milli(p_mw))
                .unwrap();
            assert!(
                eta.ratio() <= v_out / 1.2 + 1e-12,
                "v_out {v_out} p {p_mw} mW"
            );
        }
    }

    #[test]
    fn p_in_monotone_in_load() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (a, b) = (rng.range_f64(0.1, 10.0), rng.range_f64(0.1, 10.0));
            let ldo = Ldo::paper_65nm();
            let (small, large) = if a < b { (a, b) } else { (b, a) };
            let pi_small = ldo
                .convert(Volts::new(1.2), Volts::new(0.5), Watts::from_milli(small))
                .unwrap()
                .p_in;
            let pi_large = ldo
                .convert(Volts::new(1.2), Volts::new(0.5), Watts::from_milli(large))
                .unwrap()
                .p_in;
            assert!(pi_small <= pi_large, "{small} mW vs {large} mW");
        }
    }
}
