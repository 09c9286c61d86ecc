use crate::{Irradiance, PvError};
use hems_units::{solve, Amps, Ohms, UnitsError, Volts};

/// Single-diode solar cell model parameters.
///
/// The model is
///
/// ```text
/// I(V) = Iph(G) - I0 * (exp((V + I*Rs) / Vth) - 1)
/// ```
///
/// with photocurrent `Iph(G) = G * Isc_full`, reverse saturation current
/// `I0` derived from the full-sun open-circuit voltage, a lumped "thermal
/// voltage" `Vth = n * kT/q * cells_in_series` that sets the knee softness,
/// and an optional series resistance `Rs`.
///
/// The knee parameter is the calibration lever: the paper's measured curves
/// (Fig. 2) show a soft knee with the MPP near 70–75 % of `Voc`, which a
/// lumped `Vth ≈ 0.2 V` reproduces for this three-junction cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarCellModel {
    i_sc_full: Amps,
    v_oc_full: Volts,
    v_thermal: Volts,
    r_series: Ohms,
    /// Cached I0 = Isc / (exp(Voc/Vth) - 1).
    i_sat: f64,
}

impl SolarCellModel {
    /// Builds a model from datasheet-style full-sun parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::BadParameter`] when any parameter is non-positive
    /// or non-finite (series resistance may be zero).
    pub fn new(
        i_sc_full: Amps,
        v_oc_full: Volts,
        v_thermal: Volts,
        r_series: Ohms,
    ) -> Result<Self, PvError> {
        for (what, v) in [
            ("short-circuit current", i_sc_full.value()),
            ("open-circuit voltage", v_oc_full.value()),
            ("thermal voltage", v_thermal.value()),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(UnitsError::OutOfRange {
                    what,
                    value: v,
                    min: f64::MIN_POSITIVE,
                    max: f64::INFINITY,
                }
                .into());
            }
        }
        if !r_series.value().is_finite() || r_series.value() < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "series resistance",
                value: r_series.value(),
                min: 0.0,
                max: f64::INFINITY,
            }
            .into());
        }
        let exponent = v_oc_full.volts() / v_thermal.volts();
        if exponent > 500.0 {
            // exp would overflow; such a hard knee is outside the model's
            // intended regime anyway.
            return Err(UnitsError::OutOfRange {
                what: "voc/vth ratio",
                value: exponent,
                min: 0.0,
                max: 500.0,
            }
            .into());
        }
        let i_sat = i_sc_full.amps() / (exponent.exp() - 1.0);
        Ok(SolarCellModel {
            i_sc_full,
            v_oc_full,
            v_thermal,
            r_series,
            i_sat,
        })
    }

    /// The IXYS KXOB22-04X3F-like cell used throughout the paper:
    /// `Isc = 15 mA`, `Voc = 1.5 V` at full sun, soft knee (`Vth = 0.2 V`),
    /// negligible series resistance. Its full-sun MPP lands at ≈ 1.1 V /
    /// ≈ 14 mW, matching Figs. 2, 6 and 8b.
    pub fn kxob22() -> SolarCellModel {
        SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.2),
            Ohms::new(1.0),
        )
        // hems-lint: allow(panic_reach, reason = "compile-time KXOB22 datasheet constants; validated by this module's unit tests")
        .expect("kxob22 reference parameters are valid")
    }

    /// Full-sun short-circuit current.
    pub fn i_sc_full(&self) -> Amps {
        self.i_sc_full
    }

    /// Full-sun open-circuit voltage.
    pub fn v_oc_full(&self) -> Volts {
        self.v_oc_full
    }

    /// Lumped thermal (knee) voltage.
    pub fn v_thermal(&self) -> Volts {
        self.v_thermal
    }

    /// Series resistance.
    pub fn r_series(&self) -> Ohms {
        self.r_series
    }

    /// Photocurrent at irradiance `g`.
    pub fn photocurrent(&self, g: Irradiance) -> Amps {
        self.i_sc_full * g.fraction()
    }

    /// Open-circuit voltage at irradiance `g`.
    ///
    /// Falls logarithmically with light: `Voc(G) = Vth * ln(1 + G*Isc/I0)`.
    /// Returns zero volts in darkness.
    pub fn open_circuit_voltage(&self, g: Irradiance) -> Volts {
        if g.is_dark() {
            return Volts::ZERO;
        }
        let ratio = self.photocurrent(g).amps() / self.i_sat;
        Volts::new(self.v_thermal.volts() * ratio.ln_1p())
    }

    /// Terminal current at terminal voltage `v` and irradiance `g`.
    ///
    /// Solves the implicit equation when `Rs > 0` (bisection on `I`), or
    /// evaluates the explicit diode law when `Rs == 0`. Negative terminal
    /// voltages return the photocurrent (the diode is off); voltages beyond
    /// `Voc` return zero rather than letting the cell sink current, because
    /// the harvesting front-end in this system blocks reverse current.
    pub fn current(&self, v: Volts, g: Irradiance) -> Amps {
        let i_ph = self.photocurrent(g).amps();
        if i_ph <= 0.0 {
            return Amps::ZERO;
        }
        let vv = v.volts();
        if vv <= 0.0 {
            return Amps::new(i_ph);
        }
        let vth = self.v_thermal.volts();
        let rs = self.r_series.ohms();
        let diode = |i: f64| i_ph - self.i_sat * (((vv + i * rs) / vth).exp() - 1.0) - i;
        let i = if rs == 0.0 {
            i_ph - self.i_sat * ((vv / vth).exp() - 1.0)
        } else {
            // I is bracketed by [something below zero, Iph]: diode(Iph) < 0
            // when the cell cannot push Iph at this voltage, diode(lo) > 0
            // for lo low enough. Use a bracket that always straddles.
            solve::bisect(diode, -i_ph, i_ph, 1e-12).unwrap_or(0.0)
        };
        Amps::new(i.max(0.0))
    }

    /// Terminal power `V * I(V)` at irradiance `g`.
    pub fn power(&self, v: Volts, g: Irradiance) -> hems_units::Watts {
        v * self.current(v, g)
    }

    /// Fits the knee (thermal) voltage so the full-sun MPP lands at
    /// `v_mpp_target`, given datasheet `Isc` and `Voc`.
    ///
    /// This is the calibration step used to match a measured curve like the
    /// paper's Fig. 2: pick `Vth` such that the model's maximum power point
    /// sits where the instrument saw it. Solved by bisection on the
    /// monotone map `Vth -> V_mpp` (softer knees pull the MPP lower).
    ///
    /// # Errors
    ///
    /// Returns [`PvError::BadParameter`] when the target is not strictly
    /// inside `(0, Voc)`, and [`PvError::Solver`] when no knee in the
    /// plausible range `[Voc/50, Voc/2]` reaches the target.
    pub fn fit_knee(
        i_sc_full: Amps,
        v_oc_full: Volts,
        v_mpp_target: Volts,
    ) -> Result<SolarCellModel, PvError> {
        if !v_mpp_target.is_positive() || v_mpp_target >= v_oc_full {
            return Err(UnitsError::OutOfRange {
                what: "target mpp voltage",
                value: v_mpp_target.value(),
                min: f64::MIN_POSITIVE,
                max: v_oc_full.value(),
            }
            .into());
        }
        let v_mpp_of = |vth: f64| -> Result<f64, PvError> {
            let model = SolarCellModel::new(i_sc_full, v_oc_full, Volts::new(vth), Ohms::ZERO)?;
            let (v, _) = solve::maximize(
                |v| model.power(Volts::new(v), Irradiance::FULL_SUN).watts(),
                0.0,
                v_oc_full.volts(),
                128,
            )?;
            Ok(v)
        };
        let lo = v_oc_full.volts() / 50.0;
        let hi = v_oc_full.volts() / 2.0;
        let vth = solve::bisect(
            |vth| match v_mpp_of(vth) {
                Ok(v) => v - v_mpp_target.volts(),
                Err(_) => f64::NAN,
            },
            lo,
            hi,
            1e-6,
        )?;
        SolarCellModel::new(i_sc_full, v_oc_full, Volts::new(vth), Ohms::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn constructor_validates_parameters() {
        let ok = SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.2),
            Ohms::ZERO,
        );
        assert!(ok.is_ok());
        assert!(
            SolarCellModel::new(Amps::ZERO, Volts::new(1.5), Volts::new(0.2), Ohms::ZERO).is_err()
        );
        assert!(SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(-1.0),
            Volts::new(0.2),
            Ohms::ZERO
        )
        .is_err());
        assert!(SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::ZERO,
            Ohms::ZERO
        )
        .is_err());
        assert!(SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.2),
            Ohms::new(-1.0)
        )
        .is_err());
        // Pathologically hard knee overflows exp and is rejected.
        assert!(SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.001),
            Ohms::ZERO
        )
        .is_err());
    }

    #[test]
    fn short_circuit_and_open_circuit_match_datasheet() {
        let m = SolarCellModel::kxob22();
        let isc = m.current(Volts::ZERO, Irradiance::FULL_SUN);
        assert!((isc.to_milli() - 15.0).abs() < 0.01);
        let voc = m.open_circuit_voltage(Irradiance::FULL_SUN);
        assert!((voc.volts() - 1.5).abs() < 0.02);
        // At Voc the current is ~zero.
        let i_at_voc = m.current(voc, Irradiance::FULL_SUN);
        assert!(i_at_voc.to_milli() < 0.3);
    }

    #[test]
    fn voc_falls_logarithmically_with_light() {
        let m = SolarCellModel::kxob22();
        let voc_full = m.open_circuit_voltage(Irradiance::FULL_SUN).volts();
        let voc_quarter = m.open_circuit_voltage(Irradiance::QUARTER_SUN).volts();
        let voc_indoor = m.open_circuit_voltage(Irradiance::INDOOR).volts();
        assert!(voc_full > voc_quarter && voc_quarter > voc_indoor);
        // ln(4) * 0.2 V ≈ 0.277 V drop from full to quarter.
        assert!((voc_full - voc_quarter - 0.2 * 4f64.ln()).abs() < 0.02);
        assert_eq!(m.open_circuit_voltage(Irradiance::DARK), Volts::ZERO);
    }

    #[test]
    fn current_is_monotone_decreasing_in_voltage() {
        let m = SolarCellModel::kxob22();
        let mut prev = f64::INFINITY;
        for i in 0..=30 {
            let v = Volts::new(1.6 * i as f64 / 30.0);
            let cur = m.current(v, Irradiance::FULL_SUN).amps();
            assert!(cur <= prev + 1e-12, "current rose at {v}");
            prev = cur;
        }
    }

    #[test]
    fn dark_cell_produces_nothing() {
        let m = SolarCellModel::kxob22();
        assert_eq!(m.current(Volts::new(0.5), Irradiance::DARK), Amps::ZERO);
        assert_eq!(m.power(Volts::new(0.5), Irradiance::DARK).watts(), 0.0);
    }

    #[test]
    fn negative_voltage_clamps_to_photocurrent() {
        let m = SolarCellModel::kxob22();
        let i = m.current(Volts::new(-0.3), Irradiance::HALF_SUN);
        assert!((i.to_milli() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn beyond_voc_yields_zero_current() {
        let m = SolarCellModel::kxob22();
        assert_eq!(m.current(Volts::new(2.0), Irradiance::FULL_SUN), Amps::ZERO);
    }

    #[test]
    fn series_resistance_softens_the_knee() {
        let lossless = SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.2),
            Ohms::ZERO,
        )
        .unwrap();
        let lossy = SolarCellModel::new(
            Amps::from_milli(15.0),
            Volts::new(1.5),
            Volts::new(0.2),
            Ohms::new(20.0),
        )
        .unwrap();
        // At a mid voltage the series drop reduces the terminal current.
        let v = Volts::new(1.1);
        assert!(
            lossy.current(v, Irradiance::FULL_SUN).amps()
                < lossless.current(v, Irradiance::FULL_SUN).amps()
        );
    }

    #[test]
    fn fit_knee_recovers_the_reference_calibration() {
        // Ask for the reference cell's own MPP voltage: the fit should
        // come back with (approximately) the reference knee.
        let reference = SolarCellModel::kxob22();
        let cell = crate::SolarCell::new(reference.clone(), Irradiance::FULL_SUN);
        let target = cell.mpp().unwrap().voltage;
        let fitted =
            SolarCellModel::fit_knee(Amps::from_milli(15.0), Volts::new(1.5), target).unwrap();
        // The fit runs at Rs = 0 while the reference has 1 ohm of series
        // resistance, so the recovered knee differs by a few millivolts.
        assert!(
            (fitted.v_thermal().volts() - 0.2).abs() < 0.02,
            "fitted knee {}",
            fitted.v_thermal()
        );
        let refit_mpp = crate::SolarCell::new(fitted, Irradiance::FULL_SUN)
            .mpp()
            .unwrap();
        assert!((refit_mpp.voltage - target).abs() < Volts::from_milli(5.0));
    }

    #[test]
    fn fit_knee_validates_targets() {
        let isc = Amps::from_milli(15.0);
        let voc = Volts::new(1.5);
        assert!(SolarCellModel::fit_knee(isc, voc, Volts::ZERO).is_err());
        assert!(SolarCellModel::fit_knee(isc, voc, Volts::new(1.5)).is_err());
        // A target absurdly close to Voc needs an impossibly hard knee.
        assert!(SolarCellModel::fit_knee(isc, voc, Volts::new(1.49)).is_err());
    }

    #[test]
    fn current_scales_roughly_with_irradiance() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let m = SolarCellModel::kxob22();
            let g = Irradiance::new(rng.range_f64(0.05, 1.0)).unwrap();
            let isc = m.current(Volts::ZERO, g);
            assert!(
                (isc.amps() - m.photocurrent(g).amps()).abs() < 1e-9,
                "{g:?}"
            );
        }
    }

    #[test]
    fn power_is_nonnegative_and_bounded() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v, g) = (rng.range_f64(0.0, 2.0), rng.range_f64(0.0, 1.0));
            let m = SolarCellModel::kxob22();
            let p = m.power(Volts::new(v), Irradiance::new(g).unwrap());
            assert!(p.watts() >= 0.0, "v {v} g {g}");
            // Power can never exceed Voc * Isc.
            assert!(p.watts() <= 1.5 * 0.015 + 1e-9, "v {v} g {g}");
        }
    }
}
