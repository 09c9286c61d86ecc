//! Cross-stack determinism and differential contracts for `hems-fleet`.
//!
//! Three claims hold the fleet twin together:
//!
//! 1. **Byte determinism** — the rendered report is a pure function of
//!    `(seed, config)`: serve worker threading must not leak into it.
//! 2. **Source equivalence** — the serve-backed planning tier answers
//!    byte-identically to the pure in-process planner (the JSON codec
//!    round-trips `f64`s exactly, so the loopback hop is invisible).
//! 3. **Differential fidelity** — a fleet node's compact state machine,
//!    fed the *exact* per-`dt` cycle budgets and brownouts a real
//!    `hems_sim::Simulation` produces, commits the same task stream as
//!    `IntermittentRuntime::run_observed` — digests equal, counters
//!    equal. The fleet's O(1) batching is an optimization, never a
//!    semantic fork.

use hems_core::cachekey::KeyHasher;
use hems_fleet::{AnalyticPlans, Fleet, FleetConfig, NodeState, Schedule, ServePlans};
use hems_intermittent::{CheckpointPolicy, CommitEvent, IntermittentRuntime, NvmModel, TaskChain};
use hems_pv::Irradiance;
use hems_serve::server::{serve, ServeConfig};
use hems_sim::{FixedVoltageController, LightProfile, Simulation, SystemConfig};
use hems_units::{Seconds, Volts};

fn small_config(seed: u64) -> FleetConfig {
    let mut c = FleetConfig::new(seed, 24);
    c.days = 1;
    c.grid_w = 8;
    c.grid_h = 8;
    c.storms_per_day = 1;
    c.sampled = 2;
    c
}

fn run_serve_backed(seed: u64, threads: usize) -> String {
    let config = ServeConfig {
        threads: Some(threads),
        ..ServeConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", config).expect("loopback serve");
    let mut source = ServePlans::new(handle.addr());
    let fleet = Fleet::new(small_config(seed)).expect("fleet");
    let report = fleet.run(&mut source).expect("campaign");
    handle.shutdown();
    report.render_lines().expect("render")
}

#[test]
fn report_bytes_are_invariant_to_serve_threading() {
    let single = run_serve_backed(41, 1);
    let pooled = run_serve_backed(41, 4);
    assert!(single.contains("\"event\":\"summary\""));
    assert_eq!(
        single, pooled,
        "worker threading must not reach the report bytes"
    );
}

#[test]
fn serve_and_analytic_sources_agree_byte_for_byte() {
    let via_serve = run_serve_backed(42, 2);
    let fleet = Fleet::new(small_config(42)).expect("fleet");
    let mut analytic = AnalyticPlans::new();
    let via_analytic = fleet
        .run(&mut analytic)
        .expect("campaign")
        .render_lines()
        .expect("render");
    assert_eq!(via_serve, via_analytic);
}

/// The conformance plane's commit-stream digest, restated: FNV over
/// `(iteration, task)` pairs in commit order.
fn digest_events(events: &[CommitEvent]) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("commit-stream");
    for event in events {
        hasher.write_u64(event.iteration);
        hasher.write_u64(event.task as u64);
    }
    hasher.finish()
}

fn differential_sim() -> Simulation {
    let config = SystemConfig::paper_sc_system().expect("system config");
    // Full sun with two blackouts long enough to kill the node: the
    // trace must contain real brownouts or the test proves nothing.
    let light = LightProfile::with_outages(
        LightProfile::constant(Irradiance::FULL_SUN),
        vec![
            (Seconds::from_milli(6.0), Seconds::from_milli(14.0)),
            (Seconds::from_milli(30.0), Seconds::from_milli(38.0)),
        ],
    );
    Simulation::new(config, light, Volts::new(1.1)).expect("simulation")
}

const DIFF_DURATION_MS: f64 = 60.0;

/// One `(executed cycles, browned out)` record per simulation `dt`.
fn record_trace() -> Vec<(f64, bool)> {
    let mut sim = differential_sim();
    let mut controller = FixedVoltageController::new(Volts::new(0.6));
    let dt = sim.config().dt;
    let steps = (DIFF_DURATION_MS * 1e-3 / dt.seconds()).round() as u64;
    let mut trace = Vec::with_capacity(steps as usize);
    let mut last_cycles = sim.total_cycles().count();
    let mut last_brownouts = sim.events().brownouts();
    for _ in 0..steps {
        sim.step(&mut controller);
        let now_cycles = sim.total_cycles().count();
        let delta = now_cycles - last_cycles;
        last_cycles = now_cycles;
        let brownouts = sim.events().brownouts();
        let browned = brownouts > last_brownouts;
        last_brownouts = brownouts;
        trace.push((delta, browned));
    }
    trace
}

#[test]
fn node_state_machine_matches_intermittent_runtime_exactly() {
    let chain = TaskChain::recognition_loop();
    let trace = record_trace();
    assert!(
        trace.iter().filter(|(_, b)| *b).count() >= 2,
        "the trace must contain both injected brownouts"
    );

    for policy in [
        CheckpointPolicy::EveryTask,
        CheckpointPolicy::EveryNTasks(2),
        CheckpointPolicy::ChainBoundary,
    ] {
        // Reference: the real runtime driven by a fresh (identical,
        // deterministic) simulation — the exact run_observed loop.
        let mut runtime = IntermittentRuntime::new(chain.clone(), policy, NvmModel::fram());
        let mut sim = differential_sim();
        let mut controller = FixedVoltageController::new(Volts::new(0.6));
        let mut events = Vec::new();
        let progress = runtime.run_observed(
            &mut sim,
            &mut controller,
            Seconds::from_milli(DIFF_DURATION_MS),
            &mut |e| events.push(*e),
        );
        assert!(
            !events.is_empty(),
            "{policy:?}: reference committed nothing"
        );

        // Replay the identical budget/brownout trace into the fleet's
        // compact node, mirroring run_observed's per-step order:
        // brownout rollback first, then spend the step's cycles.
        let schedule =
            Schedule::new(&chain, policy, &NvmModel::fram()).expect("schedule accepts policy");
        let mut node = NodeState::new(0);
        let mut positions = Vec::new();
        for &(delta, browned) in &trace {
            if browned {
                node.rollback(&schedule);
            }
            if delta > 0.0 {
                let mut observe = |first: u64, count: u64| positions.extend(first..first + count);
                node.execute(&schedule, delta, Some(&mut observe));
            }
        }

        // Commit streams are identical: same count, contiguous
        // positions, same commit-stream digest.
        assert_eq!(
            node.committed,
            events.len() as u64,
            "{policy:?}: commit counts diverge"
        );
        assert_eq!(positions.len() as u64, node.committed);
        let len = chain.len() as u64;
        let replayed: Vec<CommitEvent> = positions
            .iter()
            .map(|pos| CommitEvent {
                at: Seconds::ZERO,
                iteration: pos / len,
                task: (pos % len) as usize,
            })
            .collect();
        assert_eq!(
            digest_events(&replayed),
            digest_events(&events),
            "{policy:?}: commit digests diverge"
        );

        // Counters: rollbacks exactly; cycle accumulators to float
        // round-off (the node batches multiplicatively, the runtime
        // adds sequentially).
        assert_eq!(
            node.rollbacks as usize, progress.rollbacks,
            "{policy:?}: rollback counts diverge"
        );
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
        assert!(
            close(node.useful, progress.useful_cycles.count()),
            "{policy:?}: useful {} vs {}",
            node.useful,
            progress.useful_cycles.count()
        );
        assert!(
            close(node.checkpoint, progress.checkpoint_cycles.count()),
            "{policy:?}: checkpoint {} vs {}",
            node.checkpoint,
            progress.checkpoint_cycles.count()
        );
        assert!(
            close(node.wasted, progress.wasted_cycles.count()),
            "{policy:?}: wasted {} vs {}",
            node.wasted,
            progress.wasted_cycles.count()
        );
    }
}
