//! Property tests over every regulator topology's full operating surface.

use hems_regulator::{AnyRegulator, BuckRegulator, HybridRegulator, Ldo, Regulator, ScRegulator};
use hems_units::{Volts, Watts, XorShiftRng};

fn lineup() -> Vec<AnyRegulator> {
    vec![
        AnyRegulator::from(Ldo::paper_65nm()),
        AnyRegulator::from(ScRegulator::paper_65nm()),
        AnyRegulator::from(BuckRegulator::paper_65nm()),
    ]
}

/// Wherever a conversion succeeds, the physics must hold: input power
/// covers the output, efficiency is in (0, 1], and the reported
/// efficiency matches `p_out / p_in`.
#[test]
fn conversions_are_physical() {
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let v_in = rng.range_f64(0.2, 1.6);
        let v_out = rng.range_f64(0.05, 1.2);
        let p_out = Watts::from_milli(rng.range_f64(0.01, 50.0));
        for regulator in lineup() {
            if let Ok(c) = regulator.convert(Volts::new(v_in), Volts::new(v_out), p_out) {
                assert!(
                    c.p_in >= p_out,
                    "{}: p_in {:?} < p_out {:?}",
                    regulator.kind(),
                    c.p_in,
                    p_out
                );
                assert!(c.efficiency.ratio() > 0.0 && c.efficiency.ratio() <= 1.0);
                let implied = p_out / c.p_in;
                assert!(
                    (c.efficiency.ratio() - implied).abs() < 1e-9,
                    "{}: reported {} vs implied {}",
                    regulator.kind(),
                    c.efficiency.ratio(),
                    implied
                );
            }
        }
    }
}

/// Input power is monotone in the load at every supported point.
#[test]
fn p_in_is_monotone_in_load() {
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let v_in = Volts::new(rng.range_f64(0.6, 1.5));
        let v_out = Volts::new(rng.range_f64(0.3, 0.8));
        let p_mw = rng.range_f64(0.1, 20.0);
        for regulator in lineup() {
            let a = regulator.convert(v_in, v_out, Watts::from_milli(p_mw));
            let b = regulator.convert(v_in, v_out, Watts::from_milli(p_mw * 1.3));
            if let (Ok(a), Ok(b)) = (a, b) {
                assert!(b.p_in > a.p_in, "{}", regulator.kind());
            }
        }
    }
}

/// The hybrid mux never does worse than any of its candidates, and
/// succeeds whenever at least one candidate succeeds.
#[test]
fn hybrid_dominates_candidates() {
    let hybrid = HybridRegulator::paper_65nm();
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let v_in = Volts::new(rng.range_f64(0.2, 1.6));
        let v_out = Volts::new(rng.range_f64(0.05, 1.2));
        let p_out = Watts::from_milli(rng.range_f64(0.01, 50.0));
        let candidate_best = lineup()
            .iter()
            .filter_map(|r| r.convert(v_in, v_out, p_out).ok())
            .map(|c| c.p_in)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"));
        match (hybrid.convert(v_in, v_out, p_out), candidate_best) {
            (Ok(h), Some(best)) => assert!(h.p_in <= best * (1.0 + 1e-12)),
            (Err(_), None) => {} // nobody can serve it — consistent
            (Ok(_), None) => panic!("hybrid succeeded where no candidate could"),
            (Err(e), Some(_)) => panic!("hybrid failed where a candidate could: {e}"),
        }
    }
}

/// `deliverable_output` inverts `convert` within solver tolerance.
#[test]
fn deliverable_output_inverts_convert() {
    let mut rng = XorShiftRng::seed_from_u64(7);
    for _ in 0..256 {
        let v_in = Volts::new(rng.range_f64(0.9, 1.5));
        let v_out = Volts::new(rng.range_f64(0.35, 0.75));
        let budget = Watts::from_milli(rng.range_f64(2.0, 30.0));
        for regulator in lineup() {
            let Ok(p_out) = regulator.deliverable_output(v_in, v_out, budget) else {
                continue;
            };
            if !p_out.is_positive() {
                continue;
            }
            let round = regulator
                .convert(v_in, v_out, p_out)
                .expect("was deliverable");
            assert!(
                round.p_in <= budget * (1.0 + 1e-6),
                "{}: round-trip {:?} exceeds budget {:?}",
                regulator.kind(),
                round.p_in,
                budget
            );
        }
    }
}
