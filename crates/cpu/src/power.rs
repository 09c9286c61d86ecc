use crate::CpuError;
use hems_units::{Amps, Farads, Hertz, UnitsError, Volts, Watts};

/// Dynamic + leakage power model.
///
/// * dynamic: `P_dyn = C_eff · V² · f` — `C_eff` is the lumped switched
///   capacitance per cycle of the whole core (paper eq. 8's `C_s`);
/// * leakage: `P_leak = V · I_0 · exp(V / V_s)` — subthreshold leakage with
///   an exponential supply sensitivity standing in for DIBL; independent of
///   clock, which is what creates the MEP when divided by `f`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    c_eff: Farads,
    i_leak0: Amps,
    v_leak_scale: Volts,
}

impl PowerModel {
    /// Builds a power model.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::BadParameter`] for non-positive parameters.
    pub fn new(c_eff: Farads, i_leak0: Amps, v_leak_scale: Volts) -> Result<PowerModel, CpuError> {
        for (what, v) in [
            ("effective capacitance", c_eff.value()),
            ("leakage reference current", i_leak0.value()),
            ("leakage voltage scale", v_leak_scale.value()),
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
        Ok(PowerModel {
            c_eff,
            i_leak0,
            v_leak_scale,
        })
    }

    /// The paper's 65 nm image processor: `C_eff = 240 pF`,
    /// `I_0 = 50 µA`, `V_s = 0.2 V` — ≈ 10 mW at (0.55 V, max speed) and a
    /// conventional MEP near 0.46 V.
    pub fn paper_65nm() -> PowerModel {
        PowerModel::new(
            Farads::new(240e-12),
            Amps::from_micro(50.0),
            Volts::new(0.2),
        )
        // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's paper_65nm unit tests")
        .expect("reference parameters are valid")
    }

    /// Lumped switched capacitance per cycle.
    pub fn c_eff(&self) -> Farads {
        self.c_eff
    }

    /// Dynamic power at supply `vdd` and clock `f`.
    pub fn dynamic(&self, vdd: Volts, f: Hertz) -> Watts {
        Watts::new(self.c_eff.farads() * vdd.volts() * vdd.volts() * f.hertz())
    }

    /// Leakage power at supply `vdd` (clock-independent).
    pub fn leakage(&self, vdd: Volts) -> Watts {
        if vdd.volts() <= 0.0 {
            return Watts::ZERO;
        }
        Watts::new(
            vdd.volts() * self.i_leak0.amps() * (vdd.volts() / self.v_leak_scale.volts()).exp(),
        )
    }

    /// Total power at supply `vdd` and clock `f`.
    pub fn total(&self, vdd: Volts, f: Hertz) -> Watts {
        self.dynamic(vdd, f) + self.leakage(vdd)
    }

    /// Dynamic energy per clock cycle at supply `vdd`: `C_eff · V²`.
    pub fn dynamic_energy_per_cycle(&self, vdd: Volts) -> hems_units::Joules {
        hems_units::Joules::new(self.c_eff.farads() * vdd.volts() * vdd.volts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrequencyModel;
    use hems_units::XorShiftRng;

    #[test]
    fn full_load_at_055v_is_about_10mw() {
        let p = PowerModel::paper_65nm();
        let f = FrequencyModel::paper_65nm();
        let v = Volts::new(0.55);
        let total = p.total(v, f.max_frequency(v));
        assert!(
            (total.to_milli() - 10.0).abs() < 1.5,
            "total = {} mW",
            total.to_milli()
        );
    }

    #[test]
    fn leakage_grows_exponentially_with_supply() {
        let p = PowerModel::paper_65nm();
        let l1 = p.leakage(Volts::new(0.5));
        let l2 = p.leakage(Volts::new(0.7));
        // exp(0.2/0.2) = e growth from the exponent, times the linear V term.
        let ratio = l2 / l1;
        assert!(
            (ratio - (0.7 / 0.5) * 1f64.exp()).abs() < 0.05,
            "ratio {ratio}"
        );
        assert_eq!(p.leakage(Volts::ZERO), Watts::ZERO);
    }

    #[test]
    fn dynamic_is_cv2f() {
        let p = PowerModel::paper_65nm();
        let d = p.dynamic(Volts::new(0.5), Hertz::from_mega(100.0));
        assert!((d.to_milli() - 240e-12 * 0.25 * 100e6 * 1e3).abs() < 1e-9);
        let e = p.dynamic_energy_per_cycle(Volts::new(0.5));
        assert!((e.value() - 60e-12).abs() < 1e-15);
    }

    #[test]
    fn constructor_validates() {
        assert!(PowerModel::new(Farads::ZERO, Amps::from_micro(50.0), Volts::new(0.2)).is_err());
        assert!(PowerModel::new(Farads::new(240e-12), Amps::ZERO, Volts::new(0.2)).is_err());
        assert!(
            PowerModel::new(Farads::new(240e-12), Amps::from_micro(50.0), Volts::ZERO).is_err()
        );
    }

    #[test]
    fn total_splits_into_components() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v, mhz) = (rng.range_f64(0.45, 1.0), rng.range_f64(1.0, 500.0));
            let p = PowerModel::paper_65nm();
            let vdd = Volts::new(v);
            let f = Hertz::from_mega(mhz);
            let total = p.total(vdd, f);
            let sum = p.dynamic(vdd, f) + p.leakage(vdd);
            assert!(
                (total.watts() - sum.watts()).abs() < 1e-15,
                "v {v} f {mhz} MHz"
            );
            assert!(total.watts() > 0.0, "v {v} f {mhz} MHz");
        }
    }

    #[test]
    fn power_monotone_in_both_axes() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v, mhz) = (rng.range_f64(0.45, 0.95), rng.range_f64(1.0, 400.0));
            let p = PowerModel::paper_65nm();
            let base = p.total(Volts::new(v), Hertz::from_mega(mhz));
            let more_v = p.total(Volts::new(v + 0.05), Hertz::from_mega(mhz));
            let more_f = p.total(Volts::new(v), Hertz::from_mega(mhz + 50.0));
            assert!(more_v > base, "v {v} f {mhz} MHz");
            assert!(more_f > base, "v {v} f {mhz} MHz");
        }
    }
}
