use crate::StorageError;
use hems_units::{Seconds, UnitsError, Volts};
use std::fmt;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// The monitored voltage rose through the threshold.
    Rising,
    /// The monitored voltage fell through the threshold.
    Falling,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Edge::Rising => "rising",
            Edge::Falling => "falling",
        })
    }
}

/// A detected threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Index of the comparator (within its bank) that fired.
    pub index: usize,
    /// The comparator's threshold voltage.
    pub threshold: Volts,
    /// Crossing direction.
    pub edge: Edge,
    /// Simulation time at which the crossing was observed.
    pub at: Seconds,
}

/// A single voltage comparator with hysteresis.
///
/// Mirrors the sub-0.1 µW board comparators of Section VII: it knows only
/// whether its input is above or below a threshold, and reports edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    threshold: Volts,
    hysteresis: Volts,
    /// Last known side: `true` when the input was above threshold.
    above: Option<bool>,
}

impl Comparator {
    /// Builds a comparator with the given threshold and hysteresis band.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadParameter`] for non-positive thresholds or
    /// negative hysteresis.
    pub fn new(threshold: Volts, hysteresis: Volts) -> Result<Comparator, StorageError> {
        if !threshold.is_positive() {
            return Err(UnitsError::OutOfRange {
                what: "comparator threshold",
                value: threshold.value(),
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            }
            .into());
        }
        if !hysteresis.value().is_finite() || hysteresis.value() < 0.0 {
            return Err(UnitsError::OutOfRange {
                what: "comparator hysteresis",
                value: hysteresis.value(),
                min: 0.0,
                max: f64::INFINITY,
            }
            .into());
        }
        Ok(Comparator {
            threshold,
            hysteresis,
            above: None,
        })
    }

    /// The threshold voltage.
    pub fn threshold(&self) -> Volts {
        self.threshold
    }

    /// Feeds a new input sample; returns the edge if the sample crossed the
    /// threshold (with hysteresis) since the previous sample.
    ///
    /// The first sample only initializes the state and never reports an
    /// edge.
    pub fn update(&mut self, input: Volts) -> Option<Edge> {
        let half = self.hysteresis * 0.5;
        let new_side = match self.above {
            // Hysteresis: to flip high we must exceed threshold + h/2, to
            // flip low we must fall below threshold - h/2.
            Some(true) => input >= self.threshold - half,
            Some(false) => input > self.threshold + half,
            None => input > self.threshold,
        };
        let edge = match self.above {
            Some(true) if !new_side => Some(Edge::Falling),
            Some(false) if new_side => Some(Edge::Rising),
            _ => None,
        };
        self.above = Some(new_side);
        edge
    }

    /// Resets the comparator to its power-on (unknown) state.
    pub fn reset(&mut self) {
        self.above = None;
    }
}

/// The board's bank of monitoring comparators (paper Fig. 8: thresholds
/// `V0 > V1 > V2` watching the solar node).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorBank {
    comparators: Vec<Comparator>,
}

impl ComparatorBank {
    /// Builds a bank from descending threshold voltages, all with the same
    /// hysteresis.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::BadParameter`] when no threshold is given,
    /// the thresholds are not strictly descending, or any comparator
    /// parameter is invalid.
    pub fn new(thresholds: &[Volts], hysteresis: Volts) -> Result<ComparatorBank, StorageError> {
        if thresholds.is_empty() {
            return Err(UnitsError::BadTable {
                reason: "comparator bank needs at least one threshold",
            }
            .into());
        }
        if thresholds.windows(2).any(|w| w[0] <= w[1]) {
            return Err(UnitsError::BadTable {
                reason: "thresholds must be strictly descending (V0 > V1 > ...)",
            }
            .into());
        }
        let comparators = thresholds
            .iter()
            .map(|t| Comparator::new(*t, hysteresis))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ComparatorBank { comparators })
    }

    /// The paper's Fig. 8 monitor: `V0 = 1.1 V`, `V1 = 1.0 V`, `V2 = 0.9 V`
    /// with 10 mV hysteresis.
    pub fn paper_board() -> ComparatorBank {
        ComparatorBank::new(
            &[Volts::new(1.1), Volts::new(1.0), Volts::new(0.9)],
            Volts::from_milli(10.0),
        )
        .expect("reference thresholds are valid")
    }

    /// The thresholds, descending.
    pub fn thresholds(&self) -> Vec<Volts> {
        self.comparators.iter().map(|c| c.threshold()).collect()
    }

    /// Number of comparators.
    pub fn len(&self) -> usize {
        self.comparators.len()
    }

    /// Always `false`: construction requires at least one comparator.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Feeds a sample taken at time `at` to every comparator; returns every
    /// crossing that fired, lowest index (highest threshold) first.
    pub fn update(&mut self, input: Volts, at: Seconds) -> Vec<Crossing> {
        self.comparators
            .iter_mut()
            .enumerate()
            .filter_map(|(index, c)| {
                c.update(input).map(|edge| Crossing {
                    index,
                    threshold: c.threshold(),
                    edge,
                    at,
                })
            })
            .collect()
    }

    /// Resets every comparator.
    pub fn reset(&mut self) {
        for c in &mut self.comparators {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_units::XorShiftRng;

    #[test]
    fn comparator_detects_edges() {
        let mut c = Comparator::new(Volts::new(1.0), Volts::ZERO).unwrap();
        assert_eq!(c.update(Volts::new(1.2)), None); // first sample: init
        assert_eq!(c.update(Volts::new(1.1)), None);
        assert_eq!(c.update(Volts::new(0.9)), Some(Edge::Falling));
        assert_eq!(c.update(Volts::new(0.8)), None);
        assert_eq!(c.update(Volts::new(1.05)), Some(Edge::Rising));
    }

    #[test]
    fn hysteresis_suppresses_chatter() {
        let mut c = Comparator::new(Volts::new(1.0), Volts::from_milli(40.0)).unwrap();
        c.update(Volts::new(1.1));
        // Dithering within the +/-20 mV band never fires.
        for v in [0.995, 1.005, 0.99, 1.01, 0.985] {
            assert_eq!(c.update(Volts::new(v)), None, "fired at {v}");
        }
        // A real excursion does.
        assert_eq!(c.update(Volts::new(0.97)), Some(Edge::Falling));
        assert_eq!(c.update(Volts::new(1.01)), None); // inside band again
        assert_eq!(c.update(Volts::new(1.03)), Some(Edge::Rising));
    }

    #[test]
    fn reset_forgets_state() {
        let mut c = Comparator::new(Volts::new(1.0), Volts::ZERO).unwrap();
        c.update(Volts::new(1.2));
        c.reset();
        // After reset the next sample initializes silently even though it is
        // on the other side.
        assert_eq!(c.update(Volts::new(0.5)), None);
    }

    #[test]
    fn bank_validates_ordering() {
        assert!(ComparatorBank::new(&[], Volts::ZERO).is_err());
        assert!(ComparatorBank::new(&[Volts::new(0.9), Volts::new(1.0)], Volts::ZERO).is_err());
        assert!(ComparatorBank::new(&[Volts::new(1.0), Volts::new(1.0)], Volts::ZERO).is_err());
        assert!(ComparatorBank::new(&[Volts::new(1.0), Volts::new(-0.1)], Volts::ZERO).is_err());
    }

    #[test]
    fn bank_reports_crossings_in_threshold_order() {
        let mut bank = ComparatorBank::paper_board();
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        bank.update(Volts::new(1.2), Seconds::ZERO);
        // A hard drop through all three thresholds fires all three, highest
        // threshold (index 0) first.
        let crossings = bank.update(Volts::new(0.5), Seconds::from_milli(3.0));
        assert_eq!(crossings.len(), 3);
        assert_eq!(crossings[0].index, 0);
        assert_eq!(crossings[0].threshold, Volts::new(1.1));
        assert_eq!(crossings[2].threshold, Volts::new(0.9));
        assert!(crossings.iter().all(|c| c.edge == Edge::Falling));
        assert!(crossings
            .iter()
            .all(|c| (c.at.to_milli() - 3.0).abs() < 1e-12));
    }

    #[test]
    fn bank_reset_reinitializes() {
        let mut bank = ComparatorBank::paper_board();
        bank.update(Volts::new(1.2), Seconds::ZERO);
        bank.reset();
        let crossings = bank.update(Volts::new(0.5), Seconds::ZERO);
        assert!(crossings.is_empty());
    }

    #[test]
    fn edge_display() {
        assert_eq!(Edge::Rising.to_string(), "rising");
        assert_eq!(Edge::Falling.to_string(), "falling");
    }

    #[test]
    fn edges_alternate() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..256 {
            let len = rng.range_u32(2, 200);
            let mut c = Comparator::new(Volts::new(1.0), Volts::from_milli(20.0)).unwrap();
            let mut last: Option<Edge> = None;
            for _ in 0..len {
                if let Some(e) = c.update(Volts::new(rng.range_f64(0.5, 1.5))) {
                    if let Some(prev) = last {
                        assert_ne!(prev, e, "two consecutive {e:?} edges");
                    }
                    last = Some(e);
                }
            }
        }
    }
}
