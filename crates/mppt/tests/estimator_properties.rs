//! Property tests of the paper's eq. 7 estimator: with constant input and
//! drawn power, the threshold-crossing time *exactly* determines the input
//! power, and the lookup table retargets consistently.

use hems_mppt::{MppLookupTable, MppTracker, Observation, TimeBasedTracker};
use hems_pv::{Irradiance, SolarCell, SolarCellModel};
use hems_storage::{Capacitor, Crossing, Edge};
use hems_units::{Efficiency, Farads, Seconds, Volts, Watts, XorShiftRng};

/// Analytic round trip: compute the exact V1->V2 traversal time for a
/// constant net power, feed synthetic crossings at those instants, and
/// the estimate must recover the input power to first order (the only
/// error sources are the one-step sampling of drawn power, absent here).
#[test]
fn constant_power_discharges_recover_p_in_exactly() {
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let p_in = Watts::from_milli(rng.range_f64(0.2, 10.0));
        let p_drawn = p_in + Watts::from_milli(rng.range_f64(0.5, 12.0));
        let cap = {
            let mut c = Capacitor::new(Farads::from_micro(100.0), Volts::new(1.6)).unwrap();
            c.set_voltage(Volts::new(1.0)).unwrap();
            c
        };
        // Exact traversal time from 1.0 V to 0.9 V at net (p_in - p_drawn).
        let t = cap
            .traversal_time(Volts::new(0.9), p_in - p_drawn)
            .expect("net discharge");
        let mut tracker = TimeBasedTracker::new(
            Farads::from_micro(100.0),
            Volts::new(1.0),
            Volts::new(0.9),
            MppLookupTable::paper_default(),
            Volts::new(1.1),
        )
        .unwrap();
        // Arm at t=0 with a falling V1 crossing.
        let mut obs =
            Observation::basic(Seconds::ZERO, Volts::new(1.0), p_drawn, Efficiency::UNITY);
        obs.crossings = vec![Crossing {
            index: 0,
            threshold: Volts::new(1.0),
            edge: Edge::Falling,
            at: Seconds::ZERO,
        }];
        tracker.update(&obs);
        // Midway sample so the drawn-power average is populated.
        let mid = Observation::basic(
            Seconds::new(t.seconds() / 2.0),
            Volts::new(0.95),
            p_drawn,
            Efficiency::UNITY,
        );
        tracker.update(&mid);
        // Complete at the exact analytic time with a falling V2 crossing.
        let mut done = Observation::basic(
            Seconds::new(t.seconds()),
            Volts::new(0.9),
            p_drawn,
            Efficiency::UNITY,
        );
        done.crossings = vec![Crossing {
            index: 1,
            threshold: Volts::new(0.9),
            edge: Edge::Falling,
            at: t,
        }];
        tracker.update(&done);
        let est = tracker.last_estimate().expect("measurement completed");
        assert!(
            (est.watts() - p_in.watts()).abs() < 1e-9 * p_in.watts().max(1e-3),
            "estimated {:?} vs true {:?}",
            est,
            p_in
        );
    }
}

/// The lookup table is consistent with the cell model across the whole
/// light range: looking up the MPP power of any light level returns a
/// voltage whose delivered power is within 1% of that MPP.
#[test]
fn lut_targets_are_near_optimal() {
    let lut = MppLookupTable::paper_default();
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let g = rng.range_f64(0.05, 1.1);
        let cell = SolarCell::new(SolarCellModel::kxob22(), Irradiance::new(g).unwrap());
        let mpp = cell.mpp().unwrap();
        let v = lut.mpp_voltage(mpp.power);
        let delivered = cell.power_at(v);
        assert!(
            delivered.watts() > mpp.power.watts() * 0.99,
            "at {g}: lut voltage {v} delivers {:?} of {:?}",
            delivered,
            mpp.power
        );
    }
}
