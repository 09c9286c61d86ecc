use crate::CpuError;
use hems_units::{Hertz, UnitsError, Volts};
use std::fmt;

/// A DVFS operating point: a supply voltage and the clock run at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// Clock frequency (at most the maximum for `vdd`).
    pub frequency: Hertz,
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} V @ {:.1} MHz",
            self.vdd.volts(),
            self.frequency.to_mega()
        )
    }
}

/// A quantized ladder of DVFS voltage levels.
///
/// Real SoCs (including the paper's test chip, whose comparator feedback
/// drives the clock generator in discrete steps) cannot set arbitrary
/// voltages; controllers snap their continuous targets to the nearest rung.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsLadder {
    levels: Vec<Volts>,
}

impl DvfsLadder {
    /// Builds a ladder from voltage levels; they are sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::BadParameter`] when no level is given or any
    /// level is non-positive/non-finite.
    pub fn new(mut levels: Vec<Volts>) -> Result<DvfsLadder, CpuError> {
        if levels.is_empty() {
            return Err(UnitsError::BadTable {
                reason: "dvfs ladder needs at least one level",
            }
            .into());
        }
        if levels.iter().any(|v| !v.is_positive()) {
            return Err(UnitsError::BadTable {
                reason: "dvfs levels must be positive and finite",
            }
            .into());
        }
        levels.sort_by(|a, b| a.volts().total_cmp(&b.volts()));
        levels.dedup();
        Ok(DvfsLadder { levels })
    }

    /// An evenly spaced ladder of `n` levels on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::BadParameter`] when `n == 0` or the interval is
    /// invalid.
    pub fn uniform(lo: Volts, hi: Volts, n: usize) -> Result<DvfsLadder, CpuError> {
        if n == 0 || !(lo < hi) || !lo.is_positive() {
            return Err(UnitsError::BadTable {
                reason: "uniform ladder needs n >= 1 and 0 < lo < hi",
            }
            .into());
        }
        if n == 1 {
            return DvfsLadder::new(vec![lo]);
        }
        let step = (hi - lo) / (n - 1) as f64;
        DvfsLadder::new((0..n).map(|i| lo + step * i as f64).collect())
    }

    /// The paper test chip's 50 mV ladder from 0.45 V to 1.0 V.
    pub fn paper_65nm() -> DvfsLadder {
        DvfsLadder::uniform(Volts::new(0.45), Volts::new(1.0), 12)
            .expect("reference ladder is valid")
    }

    /// The sorted levels.
    pub fn levels(&self) -> &[Volts] {
        &self.levels
    }

    /// Snaps `target` to the nearest rung.
    pub fn nearest(&self, target: Volts) -> Volts {
        self.levels
            .iter()
            .copied()
            .min_by(|a, b| {
                let da = (*a - target).abs().volts();
                let db = (*b - target).abs().volts();
                da.total_cmp(&db)
            })
            .unwrap_or(target)
    }

    /// The highest rung at or below `target`, or the lowest rung when all
    /// rungs exceed it (power-safety: never round a budget-derived voltage
    /// upward).
    pub fn floor(&self, target: Volts) -> Volts {
        self.levels
            .iter()
            .rev()
            .find(|v| **v <= target)
            .copied()
            .unwrap_or(self.levels[0])
    }

    /// The lowest rung at or above `target`, or the highest rung when all
    /// rungs are below it (deadline-safety: never round a deadline-derived
    /// voltage downward).
    pub fn ceil(&self, target: Volts) -> Volts {
        self.levels
            .iter()
            .find(|v| **v >= target)
            .copied()
            .unwrap_or(*self.levels.last().expect("non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn constructor_sorts_and_dedups() {
        let l = DvfsLadder::new(vec![
            Volts::new(0.8),
            Volts::new(0.5),
            Volts::new(0.8),
            Volts::new(0.6),
        ])
        .unwrap();
        assert_eq!(
            l.levels(),
            &[Volts::new(0.5), Volts::new(0.6), Volts::new(0.8)]
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(DvfsLadder::new(vec![]).is_err());
        assert!(DvfsLadder::new(vec![Volts::ZERO]).is_err());
        assert!(DvfsLadder::new(vec![Volts::new(f64::NAN)]).is_err());
        assert!(DvfsLadder::uniform(Volts::new(0.5), Volts::new(0.4), 3).is_err());
        assert!(DvfsLadder::uniform(Volts::new(0.5), Volts::new(0.8), 0).is_err());
    }

    #[test]
    fn paper_ladder_spans_operating_range() {
        let l = DvfsLadder::paper_65nm();
        assert_eq!(l.levels().len(), 12);
        assert_eq!(l.levels()[0], Volts::new(0.45));
        assert_eq!(*l.levels().last().unwrap(), Volts::new(1.0));
        let step = l.levels()[1] - l.levels()[0];
        assert!((step.volts() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn nearest_floor_ceil_behave() {
        let l = DvfsLadder::uniform(Volts::new(0.4), Volts::new(1.0), 7).unwrap();
        assert_eq!(l.nearest(Volts::new(0.52)), Volts::new(0.5));
        assert_eq!(l.floor(Volts::new(0.59)), Volts::new(0.5));
        assert_eq!(l.ceil(Volts::new(0.51)), Volts::new(0.6));
        // Out-of-range clamping.
        assert_eq!(l.floor(Volts::new(0.1)), Volts::new(0.4));
        assert_eq!(l.ceil(Volts::new(2.0)), Volts::new(1.0));
    }

    #[test]
    fn single_level_ladder() {
        let l = DvfsLadder::uniform(Volts::new(0.5), Volts::new(1.0), 1).unwrap();
        assert_eq!(l.levels(), &[Volts::new(0.5)]);
        assert_eq!(l.nearest(Volts::new(0.9)), Volts::new(0.5));
    }

    #[test]
    fn operating_point_display() {
        let op = OperatingPoint {
            vdd: Volts::new(0.55),
            frequency: Hertz::from_mega(136.4),
        };
        assert_eq!(op.to_string(), "0.550 V @ 136.4 MHz");
    }

    #[test]
    fn floor_le_nearest_le_ceil() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let v = rng.range_f64(0.3, 1.2);
            let l = DvfsLadder::paper_65nm();
            let t = Volts::new(v);
            assert!(l.floor(t) <= l.ceil(t), "v {v}");
            let n = l.nearest(t);
            assert!(
                n >= l.levels()[0] && n <= *l.levels().last().unwrap(),
                "v {v}"
            );
        }
    }

    #[test]
    fn floor_is_le_target_when_in_range() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let v = rng.range_f64(0.45, 1.0);
            let l = DvfsLadder::paper_65nm();
            assert!(l.floor(Volts::new(v)) <= Volts::new(v), "v {v}");
            assert!(l.ceil(Volts::new(v)) >= Volts::new(v), "v {v}");
        }
    }
}
