//! Property-style fuzzing of the full system, folded into the
//! conformance plane: arbitrary (even adversarial) scripted controllers
//! and light conditions must never break the physics, and every fast
//! path must agree with its reference implementation.
//!
//! This is a thin wrapper over `hems_conformance` — the seeded
//! generators, oracles, and the shrinker live there, and the
//! `hems-conformance` binary runs the same oracles at fuzz scale in
//! `scripts/verify.sh`. Here a small fixed budget keeps the properties
//! inside plain `cargo test -q`. A failure names the case seed; replay
//! and minimize it with `hems-conformance --replay <oracle>:0x<seed>:-`.

use hems_conformance::{oracles, CaseInput, OracleCtx, OracleKind};

/// Seeds for this suite come from one fixed campaign seed, decorrelated
/// per oracle by the same `oracles::case_seeds` the binary's `--fuzz`
/// mode draws from.
const CAMPAIGN_SEED: u64 = 0x70_4E;

fn run_cases(kind: OracleKind, cases: usize, ctx: &mut OracleCtx) {
    for seed in oracles::case_seeds(CAMPAIGN_SEED, kind).take(cases) {
        let input = CaseInput::generate(seed);
        let divergence = oracles::run(kind, &input, ctx)
            .unwrap_or_else(|e| panic!("harness failure on {kind} seed 0x{seed:016x}: {e}"));
        assert!(
            divergence.is_none(),
            "{kind} diverged on seed 0x{seed:016x} ({}); replay with \
`hems-conformance --replay {}:0x{seed:016x}:-`",
            divergence.map(|d| d.detail).unwrap_or_default(),
            kind.name(),
        );
    }
}

#[test]
fn arbitrary_controllers_never_break_the_physics() {
    // The physics oracle carries the original property suite's
    // invariants: voltage stays physical, the energy ledger balances,
    // delivered work never exceeds what arrived, and identical runs
    // are bitwise reproducible.
    let mut ctx = OracleCtx::new();
    run_cases(OracleKind::Physics, 24, &mut ctx);
}

#[test]
fn every_fast_path_agrees_with_its_reference() {
    // A small slice of the full differential plane per oracle; the
    // verify.sh fuzz stage runs the same oracles at 500 cases each.
    let mut ctx = OracleCtx::new();
    for kind in OracleKind::all() {
        run_cases(kind, 4, &mut ctx);
    }
}
