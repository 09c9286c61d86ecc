use crate::StorageError;
use hems_units::{Amps, Farads, Joules, Seconds, UnitsError, Volts, Watts};

/// The storage capacitor that replaces the battery (paper Section II).
///
/// State is just the node voltage; the simulator advances it explicitly with
/// [`Capacitor::step`] (net current) or [`Capacitor::step_power`] (net
/// power, the form eq. 6 uses). Voltage clamps at zero (fully drained) and
/// at the rated maximum (the harvesting front-end's clamp).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance: Farads,
    v_rating: Volts,
    voltage: Volts,
    leakage_resistance: Option<hems_units::Ohms>,
}

impl Capacitor {
    /// Builds an initially empty capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadParameter`] when the capacitance or the
    /// voltage rating is non-positive.
    pub fn new(capacitance: Farads, v_rating: Volts) -> Result<Capacitor, StorageError> {
        for (what, v) in [
            ("capacitance", capacitance.value()),
            ("voltage rating", v_rating.value()),
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
        Ok(Capacitor {
            capacitance,
            v_rating,
            voltage: Volts::ZERO,
            leakage_resistance: None,
        })
    }

    /// Adds a parallel self-discharge (leakage) resistance.
    ///
    /// Electrolytic and supercap storage leaks; a 100 µF ceramic at ~10 MΩ
    /// loses microwatts — negligible over milliseconds, decisive over
    /// hours of darkness.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadParameter`] for a non-positive
    /// resistance.
    pub fn with_leakage(mut self, resistance: hems_units::Ohms) -> Result<Capacitor, StorageError> {
        if !resistance.is_positive() {
            return Err(UnitsError::OutOfRange {
                what: "leakage resistance",
                value: resistance.value(),
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            }
            .into());
        }
        self.leakage_resistance = Some(resistance);
        Ok(self)
    }

    /// The configured self-discharge resistance, if any.
    pub fn leakage_resistance(&self) -> Option<hems_units::Ohms> {
        self.leakage_resistance
    }

    /// Present self-discharge power at the current voltage (`V²/R`).
    pub fn leakage_power(&self) -> Watts {
        match self.leakage_resistance {
            Some(r) => Watts::new(self.voltage.volts() * self.voltage.volts() / r.ohms()),
            None => Watts::ZERO,
        }
    }

    /// The paper test board's storage capacitor: 100 µF rated 1.6 V,
    /// sized so the RC transients match Fig. 8's millisecond-scale
    /// threshold crossings.
    pub fn paper_board() -> Capacitor {
        Capacitor::new(Farads::from_micro(100.0), Volts::new(1.6))
            // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's unit tests")
            .expect("reference parameters are valid")
    }

    /// Capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Voltage rating.
    pub fn v_rating(&self) -> Volts {
        self.v_rating
    }

    /// Present node voltage.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Stored energy `½CV²`.
    pub fn energy(&self) -> Joules {
        self.capacitance.stored_energy(self.voltage)
    }

    /// Sets the node voltage directly (initial conditions, test setup).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::OverVoltage`] above the rating and
    /// [`StorageError::BadParameter`] for negative/non-finite values.
    pub fn set_voltage(&mut self, v: Volts) -> Result<(), StorageError> {
        if !v.value().is_finite() || v.value() < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "capacitor voltage",
                value: v.value(),
                min: 0.0,
                max: self.v_rating.value(),
            }
            .into());
        }
        if v > self.v_rating {
            return Err(StorageError::OverVoltage {
                requested: v.volts(),
                rating: self.v_rating.volts(),
            });
        }
        self.voltage = v;
        Ok(())
    }

    /// Advances the node by `dt` under a constant net current
    /// (`> 0` charging): `V += I·dt / C`, clamped to `[0, rating]`.
    ///
    /// Returns the new voltage.
    pub fn step(&mut self, net_current: Amps, dt: Seconds) -> Volts {
        let dq = net_current * dt;
        let dv = dq / self.capacitance;
        self.voltage = (self.voltage + dv).clamp(Volts::ZERO, self.v_rating);
        self.voltage
    }

    /// Advances the node by `dt` under a constant net *power*
    /// (`> 0` charging), integrating `½C dV²/dt = P` exactly:
    /// `V' = sqrt(V² + 2·P·dt/C)`, clamped to `[0, rating]`.
    ///
    /// This is the integral form behind the paper's eq. 6, and is exact for
    /// constant-power loads where [`Capacitor::step`] would need tiny steps.
    ///
    /// Returns the new voltage.
    pub fn step_power(&mut self, net_power: Watts, dt: Seconds) -> Volts {
        let v2 = self.voltage.volts() * self.voltage.volts()
            + 2.0 * net_power.watts() * dt.seconds() / self.capacitance.farads();
        self.voltage = Volts::new(v2.max(0.0).sqrt()).min(self.v_rating);
        self.voltage
    }

    /// Time for the node to traverse from its present voltage to `v_to`
    /// under constant net power (paper eq. 6 solved for `t`):
    /// `t = C (V_to² - V²) / (2 P)`.
    ///
    /// Returns `None` when the sign of the power cannot produce the
    /// traversal (e.g. discharging toward a higher voltage) or when the
    /// power is zero.
    pub fn traversal_time(&self, v_to: Volts, net_power: Watts) -> Option<Seconds> {
        if net_power.watts() == 0.0 {
            return None;
        }
        let dv2 = v_to.volts() * v_to.volts() - self.voltage.volts() * self.voltage.volts();
        let t = self.capacitance.farads() * dv2 / (2.0 * net_power.watts());
        if t.is_finite() && t > 0.0 {
            Some(Seconds::new(t))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    fn cap_at(v: f64) -> Capacitor {
        let mut c = Capacitor::paper_board();
        c.set_voltage(Volts::new(v)).unwrap();
        c
    }

    #[test]
    fn constructor_and_setters_validate() {
        assert!(Capacitor::new(Farads::ZERO, Volts::new(1.0)).is_err());
        assert!(Capacitor::new(Farads::from_micro(100.0), Volts::ZERO).is_err());
        let mut c = Capacitor::paper_board();
        assert!(matches!(
            c.set_voltage(Volts::new(2.0)),
            Err(StorageError::OverVoltage { .. })
        ));
        assert!(c.set_voltage(Volts::new(-0.1)).is_err());
        assert!(c.set_voltage(Volts::new(f64::NAN)).is_err());
        assert!(c.set_voltage(Volts::new(1.2)).is_ok());
    }

    #[test]
    fn energy_is_half_cv_squared() {
        let c = cap_at(1.2);
        assert!((c.energy().to_micro() - 72.0).abs() < 1e-9);
        assert_eq!(Capacitor::paper_board().energy(), Joules::ZERO);
    }

    #[test]
    fn constant_current_step_is_linear() {
        let mut c = cap_at(1.0);
        c.step(Amps::from_milli(-1.0), Seconds::from_milli(10.0));
        assert!((c.voltage().volts() - 0.9).abs() < 1e-12);
        c.step(Amps::from_milli(2.0), Seconds::from_milli(10.0));
        assert!((c.voltage().volts() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn step_clamps_at_rails() {
        let mut c = cap_at(0.05);
        c.step(Amps::new(-1.0), Seconds::new(1.0));
        assert_eq!(c.voltage(), Volts::ZERO);
        c.step(Amps::new(10.0), Seconds::new(10.0));
        assert_eq!(c.voltage(), Volts::new(1.6));
    }

    #[test]
    fn power_step_conserves_energy_exactly() {
        let mut c = cap_at(1.0);
        let e0 = c.energy();
        c.step_power(Watts::from_milli(-5.0), Seconds::from_milli(4.0));
        let e1 = c.energy();
        // ΔE = P·t = 20 µJ discharge.
        assert!(((e0 - e1).to_micro() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn power_step_clamps_at_zero() {
        let mut c = cap_at(0.1);
        c.step_power(Watts::new(-1.0), Seconds::new(1.0));
        assert_eq!(c.voltage(), Volts::ZERO);
    }

    #[test]
    fn traversal_time_matches_eq6() {
        // Paper eq. 6/7: t = C (V1² - V2²) / (2 P_net_discharge).
        let c = cap_at(1.0);
        let t = c
            .traversal_time(Volts::new(0.9), Watts::from_milli(-5.0))
            .unwrap();
        let expected = 100e-6 * (1.0 - 0.81) / (2.0 * 5e-3);
        assert!((t.seconds() - expected).abs() < 1e-12);
    }

    #[test]
    fn traversal_time_rejects_impossible_directions() {
        let c = cap_at(1.0);
        // Discharging toward a higher voltage: impossible.
        assert!(c
            .traversal_time(Volts::new(1.1), Watts::from_milli(-5.0))
            .is_none());
        // Charging toward a lower voltage: impossible.
        assert!(c
            .traversal_time(Volts::new(0.9), Watts::from_milli(5.0))
            .is_none());
        // Zero power never gets there.
        assert!(c.traversal_time(Volts::new(0.9), Watts::ZERO).is_none());
    }

    #[test]
    fn leakage_is_quadratic_in_voltage() {
        let c = cap_at(1.0)
            .with_leakage(hems_units::Ohms::new(1.0e7))
            .unwrap();
        assert!((c.leakage_power().to_micro() - 0.1).abs() < 1e-12);
        let mut c2 = c.clone();
        c2.set_voltage(Volts::new(0.5)).unwrap();
        assert!((c2.leakage_power().to_micro() - 0.025).abs() < 1e-12);
        assert_eq!(cap_at(1.0).leakage_power(), Watts::ZERO);
        assert!(cap_at(1.0).leakage_resistance().is_none());
        assert!(cap_at(1.0).with_leakage(hems_units::Ohms::ZERO).is_err());
    }

    #[test]
    fn traversal_time_agrees_with_power_stepping() {
        let mut c = cap_at(1.1);
        let t = c
            .traversal_time(Volts::new(0.8), Watts::from_milli(-3.0))
            .unwrap();
        c.step_power(Watts::from_milli(-3.0), t);
        assert!((c.voltage().volts() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn many_small_steps_match_one_power_step() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v0, p_mw) = (rng.range_f64(0.3, 1.4), rng.range_f64(-8.0, 8.0));
            if p_mw.abs() <= 0.01 {
                continue;
            }
            let dt_total = 5e-3;
            let mut fine = cap_at(v0);
            let mut coarse = cap_at(v0);
            coarse.step_power(Watts::from_milli(p_mw), Seconds::new(dt_total));
            let n = 5000;
            for _ in 0..n {
                // Convert the constant power into the instantaneous current
                // at the present voltage, as the simulator does.
                let v = fine.voltage().volts().max(1e-6);
                let i = Amps::new(p_mw * 1e-3 / v);
                fine.step(i, Seconds::new(dt_total / n as f64));
            }
            // Compare V² (stored energy), which `step_power` integrates
            // exactly. V itself is ill-conditioned near empty (dV/dE ∝ 1/V):
            // a draw that just drains the node turns the Euler loop's tiny
            // energy error into tens of millivolts.
            let (f, c) = (fine.voltage().volts(), coarse.voltage().volts());
            assert!(
                (f * f - c * c).abs() < 2e-3,
                "v0 {v0} p {p_mw} mW: fine {} vs coarse {}",
                fine.voltage(),
                coarse.voltage()
            );
        }
    }

    #[test]
    fn voltage_always_in_bounds() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let (v0, i_ma) = (rng.range_f64(0.0, 1.6), rng.range_f64(-50.0, 50.0));
            let mut c = cap_at(v0);
            for _ in 0..100 {
                c.step(Amps::from_milli(i_ma), Seconds::from_micro(100.0));
                assert!(c.voltage() >= Volts::ZERO, "v0 {v0} i {i_ma} mA");
                assert!(c.voltage() <= c.v_rating(), "v0 {v0} i {i_ma} mA");
            }
        }
    }
}
