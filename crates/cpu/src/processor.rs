use crate::{mep, CpuError, EnergyBreakdown, FrequencyModel, MepPoint, OperatingPoint, PowerModel};
use hems_units::{Hertz, Joules, UnitsError, Volts, Watts};

/// The complete microprocessor model: frequency law + power model + an
/// operating voltage window.
///
/// This is the "μProcessor" box of the paper's Fig. 1 — the object the
/// regulators feed and the holistic optimizer reasons about.
#[derive(Debug, Clone, PartialEq)]
pub struct Microprocessor {
    freq: FrequencyModel,
    power: PowerModel,
    v_min: Volts,
    v_max: Volts,
}

impl Microprocessor {
    /// Builds a processor from its component models and voltage window.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::BadParameter`] when the window is inverted or
    /// `v_min` does not exceed the frequency model's threshold voltage.
    pub fn new(
        freq: FrequencyModel,
        power: PowerModel,
        v_min: Volts,
        v_max: Volts,
    ) -> Result<Microprocessor, CpuError> {
        if !(v_min < v_max) || v_min <= freq.v_threshold() {
            return Err(UnitsError::OutOfRange {
                what: "processor voltage window",
                value: v_min.value(),
                min: freq.v_threshold().value(),
                max: v_max.value(),
            }
            .into());
        }
        Ok(Microprocessor {
            freq,
            power,
            v_min,
            v_max,
        })
    }

    /// The paper's 65 nm pattern-recognition image processor, operating
    /// 0.45–1.0 V.
    pub fn paper_65nm() -> Microprocessor {
        Microprocessor::new(
            FrequencyModel::paper_65nm(),
            PowerModel::paper_65nm(),
            Volts::new(0.45),
            Volts::new(1.0),
        )
        // hems-lint: allow(panic_reach, reason = "compile-time reference constants; validated by this module's paper_65nm unit tests")
        .expect("reference parameters are valid")
    }

    /// Minimum operating voltage.
    pub fn v_min(&self) -> Volts {
        self.v_min
    }

    /// Maximum operating voltage.
    pub fn v_max(&self) -> Volts {
        self.v_max
    }

    /// The frequency model.
    pub fn frequency_model(&self) -> &FrequencyModel {
        &self.freq
    }

    /// The power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// `true` when `vdd` lies inside the operating window.
    pub fn supports(&self, vdd: Volts) -> bool {
        vdd >= self.v_min && vdd <= self.v_max
    }

    /// Maximum clock at supply `vdd` (zero outside the window).
    pub fn max_frequency(&self, vdd: Volts) -> Hertz {
        if !self.supports(vdd) {
            return Hertz::ZERO;
        }
        self.freq.max_frequency(vdd)
    }

    /// The maximum-performance operating point at `vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::VoltageOutOfRange`] outside the window.
    pub fn max_speed_point(&self, vdd: Volts) -> Result<OperatingPoint, CpuError> {
        if !self.supports(vdd) {
            return Err(CpuError::VoltageOutOfRange {
                vdd: vdd.volts(),
                v_min: self.v_min.volts(),
                v_max: self.v_max.volts(),
            });
        }
        Ok(OperatingPoint {
            vdd,
            frequency: self.freq.max_frequency(vdd),
        })
    }

    /// Power drawn at an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::VoltageOutOfRange`] outside the window and
    /// [`CpuError::FrequencyUnreachable`] when the clock exceeds the maximum
    /// for `vdd`.
    pub fn power_at(&self, op: OperatingPoint) -> Result<Watts, CpuError> {
        if !self.supports(op.vdd) {
            return Err(CpuError::VoltageOutOfRange {
                vdd: op.vdd.volts(),
                v_min: self.v_min.volts(),
                v_max: self.v_max.volts(),
            });
        }
        let f_max = self.freq.max_frequency(op.vdd);
        if op.frequency > f_max * (1.0 + 1e-9) {
            return Err(CpuError::FrequencyUnreachable {
                requested: op.frequency.hertz(),
                max: f_max.hertz(),
            });
        }
        Ok(self.power.total(op.vdd, op.frequency))
    }

    /// Power at maximum speed for `vdd` — the "Power-Voltage (μProcessor)"
    /// curve of Fig. 6a.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::VoltageOutOfRange`] outside the window.
    pub fn power_at_max_speed(&self, vdd: Volts) -> Result<Watts, CpuError> {
        let op = self.max_speed_point(vdd)?;
        self.power_at(op)
    }

    /// The cheapest operating point that sustains clock `target`: the lowest
    /// in-window voltage whose maximum frequency reaches it, clocked at
    /// exactly `target`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::FrequencyUnreachable`] when `target` exceeds the
    /// window's capability.
    pub fn point_for_frequency(&self, target: Hertz) -> Result<OperatingPoint, CpuError> {
        let vdd = self
            .freq
            .voltage_for_frequency(target, self.v_max)?
            .max(self.v_min);
        Ok(OperatingPoint {
            vdd,
            frequency: target,
        })
    }

    /// Per-cycle energy breakdown at `vdd` (max-speed convention).
    ///
    /// Returns `None` outside the operating window.
    pub fn energy_breakdown(&self, vdd: Volts) -> Option<EnergyBreakdown> {
        if !self.supports(vdd) {
            return None;
        }
        mep::energy_breakdown(&self.freq, &self.power, vdd)
    }

    /// Energy per cycle at `vdd` (max-speed convention), unbounded outside
    /// the window.
    pub fn energy_per_cycle(&self, vdd: Volts) -> Joules {
        match self.energy_breakdown(vdd) {
            Some(b) => b.total(),
            None => Joules::new(f64::INFINITY),
        }
    }

    /// The conventional minimum-energy point over the operating window —
    /// eq. 5 without the regulator term, Fig. 7b's "Conventional MEP".
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn conventional_mep(&self) -> Result<MepPoint, CpuError> {
        mep::conventional_mep(&self.freq, &self.power, self.v_min, self.v_max)
            .map_err(CpuError::from)
    }

    /// Time to execute `cycles` at operating point `op`.
    ///
    /// # Panics
    ///
    /// Panics if the operating point has zero frequency.
    pub fn execution_time(
        &self,
        cycles: hems_units::Cycles,
        op: OperatingPoint,
    ) -> hems_units::Seconds {
        assert!(
            op.frequency.is_positive(),
            "execution time undefined at zero clock"
        );
        cycles / op.frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn paper_frame_takes_15ms_at_half_volt() {
        // Section VII: a 64x64 frame (≈1.0 M cycles in our workload model)
        // takes about 15 ms at 0.5 V.
        let cpu = Microprocessor::paper_65nm();
        let op = cpu.max_speed_point(Volts::new(0.5)).unwrap();
        let t = cpu.execution_time(hems_units::Cycles::new(1.0e6), op);
        assert!((t.to_milli() - 15.0).abs() < 0.2, "t = {} ms", t.to_milli());
    }

    #[test]
    fn window_is_enforced() {
        let cpu = Microprocessor::paper_65nm();
        assert!(cpu.supports(Volts::new(0.7)));
        assert!(!cpu.supports(Volts::new(0.44)));
        assert!(!cpu.supports(Volts::new(1.01)));
        assert!(matches!(
            cpu.max_speed_point(Volts::new(0.3)),
            Err(CpuError::VoltageOutOfRange { .. })
        ));
        assert_eq!(cpu.max_frequency(Volts::new(0.3)), Hertz::ZERO);
        assert!(cpu.energy_breakdown(Volts::new(0.3)).is_none());
        assert!(cpu.energy_per_cycle(Volts::new(0.3)).value().is_infinite());
    }

    #[test]
    fn overclocking_is_rejected() {
        let cpu = Microprocessor::paper_65nm();
        let v = Volts::new(0.5);
        let too_fast = OperatingPoint {
            vdd: v,
            frequency: cpu.max_frequency(v) * 1.2,
        };
        assert!(matches!(
            cpu.power_at(too_fast),
            Err(CpuError::FrequencyUnreachable { .. })
        ));
    }

    #[test]
    fn underclocking_saves_dynamic_power() {
        let cpu = Microprocessor::paper_65nm();
        let v = Volts::new(0.6);
        let full = cpu
            .power_at(OperatingPoint {
                vdd: v,
                frequency: cpu.max_frequency(v),
            })
            .unwrap();
        let half = cpu
            .power_at(OperatingPoint {
                vdd: v,
                frequency: cpu.max_frequency(v) * 0.5,
            })
            .unwrap();
        assert!(half < full);
        // But not below leakage.
        assert!(half > cpu.power_model().leakage(v));
    }

    #[test]
    fn point_for_frequency_is_minimal() {
        let cpu = Microprocessor::paper_65nm();
        let op = cpu.point_for_frequency(Hertz::from_mega(136.4)).unwrap();
        assert!((op.vdd.volts() - 0.55).abs() < 0.005, "vdd = {}", op.vdd);
        // Target below the v_min capability clamps to v_min.
        let slow = cpu.point_for_frequency(Hertz::from_mega(1.0)).unwrap();
        assert_eq!(slow.vdd, Volts::new(0.45));
        assert!(cpu.point_for_frequency(Hertz::from_giga(2.0)).is_err());
    }

    #[test]
    fn conventional_mep_matches_calibration() {
        let cpu = Microprocessor::paper_65nm();
        let mep = cpu.conventional_mep().unwrap();
        assert!((mep.vdd.volts() - 0.46).abs() < 0.02, "MEP {}", mep.vdd);
    }

    #[test]
    fn constructor_rejects_bad_windows() {
        let f = FrequencyModel::paper_65nm();
        let p = PowerModel::paper_65nm();
        assert!(
            Microprocessor::new(f.clone(), p.clone(), Volts::new(0.8), Volts::new(0.5)).is_err()
        );
        // v_min at/below threshold (0.4 V) is rejected.
        assert!(Microprocessor::new(f, p, Volts::new(0.4), Volts::new(1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "zero clock")]
    fn execution_time_rejects_zero_clock() {
        let cpu = Microprocessor::paper_65nm();
        let _ = cpu.execution_time(
            hems_units::Cycles::new(1.0),
            OperatingPoint {
                vdd: Volts::new(0.5),
                frequency: Hertz::ZERO,
            },
        );
    }

    #[test]
    fn max_speed_power_is_monotone() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let v = rng.range_f64(0.45, 0.95);
            let cpu = Microprocessor::paper_65nm();
            let p1 = cpu.power_at_max_speed(Volts::new(v)).unwrap();
            let p2 = cpu.power_at_max_speed(Volts::new(v + 0.05)).unwrap();
            assert!(p2 > p1, "v {v}");
        }
    }

    #[test]
    fn energy_per_cycle_exceeds_dynamic_floor() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let v = rng.range_f64(0.45, 1.0);
            let cpu = Microprocessor::paper_65nm();
            let e = cpu.energy_per_cycle(Volts::new(v));
            let dyn_e = cpu.power_model().dynamic_energy_per_cycle(Volts::new(v));
            assert!(e > dyn_e, "v {v}");
        }
    }
}
