//! The power surface: brownouts at every checkpoint boundary.
//!
//! A fault-free reference run of a fixed task chain under constant light
//! records its commit stream (every durably committed task, in order).
//! Then, for each covered checkpoint boundary, a faulted run overlays a
//! total blackout window starting just after that commit
//! ([`hems_sim::LightProfile::with_outages`]), long enough to collapse
//! the storage capacitor and brown the node out mid-chain.
//!
//! Crash consistency is judged on the commit streams: the faulted run's
//! stream must be *prefix-digest-identical* to the reference stream (the
//! chain resumed from the last committed checkpoint — no lost, repeated,
//! or reordered commits), a brownout must actually have happened, and
//! commits must resume after the window closes. Commit *times* differ by
//! construction (the faulted run stalls through the outage), so digests
//! cover positions, not timestamps.

use crate::error::ChaosError;
use crate::plan::CampaignConfig;
use hems_core::cachekey::KeyHasher;
use hems_intermittent::{
    CheckpointPolicy, CommitEvent, IntermittentRuntime, NvmModel, Task, TaskChain,
};
use hems_obs::json::Value;
use hems_obs::Registry;
use hems_pv::Irradiance;
use hems_sim::{FixedVoltageController, LightProfile, Simulation, SystemConfig};
use hems_units::{Cycles, Seconds, Volts};

/// Outcome of the power campaign.
#[derive(Debug)]
pub struct PowerReport {
    /// One JSON line per run (reference + each boundary).
    pub lines: Vec<Value>,
    /// Brownouts injected.
    pub injected: u64,
    /// Faulted runs that passed every crash-consistency check.
    pub recovered: u64,
}

/// The reference application: a sense → filter → classify chain, the
/// shape the intermittent-computing literature (Alpaca-style tasks)
/// models.
fn reference_chain() -> Result<TaskChain, ChaosError> {
    TaskChain::new(vec![
        Task::new("sense", Cycles::new(120_000.0), 64),
        Task::new("filter", Cycles::new(240_000.0), 128),
        Task::new("classify", Cycles::new(90_000.0), 16),
    ])
    .map_err(|e| ChaosError::new("power: reference chain", e.to_string()))
}

fn fresh_sim(light: LightProfile) -> Result<Simulation, ChaosError> {
    let config = SystemConfig::paper_sc_system()
        .map_err(|e| ChaosError::new("power: system config", e.to_string()))?;
    Simulation::new(config, light, Volts::new(1.1))
        .map_err(|e| ChaosError::new("power: simulation", e.to_string()))
}

fn fresh_runtime(chain: &TaskChain) -> IntermittentRuntime {
    IntermittentRuntime::new(chain.clone(), CheckpointPolicy::EveryTask, NvmModel::fram())
}

/// FNV-1a digest of a commit stream's positions (not its timestamps —
/// faulted runs commit the same tasks later).
fn digest(events: &[CommitEvent]) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("commit-stream");
    for event in events {
        hasher.write_u64(event.iteration);
        hasher.write_u64(event.task as u64);
    }
    hasher.finish()
}

/// Runs the power campaign. Fault tallies are double-entried into
/// `registry` (`chaos.power.injected` / `chaos.power.recovered`) so the
/// campaign summary reads its counts back from the shared telemetry
/// registry.
///
/// # Errors
///
/// Errors only when the campaign itself cannot run (invalid reference
/// setup, or a reference run that is not fault-free); injected-fault
/// failures are reported in the returned lines, not as errors.
pub fn run(config: &CampaignConfig, registry: &Registry) -> Result<PowerReport, ChaosError> {
    let injected_counter = registry.counter("chaos.power.injected");
    let recovered_counter = registry.counter("chaos.power.recovered");
    let plan = config.plan();
    let chain = reference_chain()?;
    let duration = Seconds::from_milli(25.0);
    let sun = LightProfile::constant(Irradiance::FULL_SUN);

    // Reference: fault-free commit stream.
    let mut reference = Vec::new();
    let mut sim = fresh_sim(sun.clone())?;
    let mut runtime = fresh_runtime(&chain);
    let mut controller = FixedVoltageController::new(Volts::new(0.6));
    let progress = runtime.run_observed(&mut sim, &mut controller, duration, &mut |e| {
        reference.push(*e)
    });
    if sim.events().brownouts() > 0 {
        return Err(ChaosError::new(
            "power: reference run",
            "reference run browned out; it must be fault-free",
        ));
    }
    if reference.is_empty() {
        return Err(ChaosError::new(
            "power: reference run",
            "reference run committed nothing",
        ));
    }
    let reference_digest = digest(&reference);
    let mut lines = vec![Value::obj(vec![
        ("surface", Value::str("power")),
        ("run", Value::str("reference")),
        ("commits", Value::Num(reference.len() as f64)),
        ("goodput", Value::Num(progress.goodput())),
        ("digest", Value::str(format!("{reference_digest:016x}"))),
    ])];

    // Cover the boundaries evenly up to the configured cap.
    let cap = config.power_boundaries.max(1).min(reference.len());
    let picks: Vec<usize> = (0..cap).map(|i| i * reference.len() / cap).collect();

    let mut rng = plan.stream("power");
    let mut injected = 0u64;
    let mut recovered = 0u64;
    for boundary in picks {
        let Some(event) = reference.get(boundary).copied() else {
            continue;
        };
        // The blackout begins just after this commit completes and lasts
        // long enough (with seeded jitter) to kill the node.
        let outage_start = Seconds::new(event.at.seconds() + 0.5e-3);
        let outage_len = Seconds::from_milli(rng.range_f64(15.0, 30.0));
        let outage_end = Seconds::new(outage_start.seconds() + outage_len.seconds());
        let light = LightProfile::with_outages(sun.clone(), vec![(outage_start, outage_end)]);
        // Extend the run so the node has time to recover and catch up to
        // the reference's commit count.
        let faulted_duration = Seconds::new(duration.seconds() + outage_len.seconds() + 60.0e-3);

        let mut events = Vec::new();
        let mut sim = fresh_sim(light)?;
        let mut runtime = fresh_runtime(&chain);
        let mut controller = FixedVoltageController::new(Volts::new(0.6));
        let progress =
            runtime.run_observed(&mut sim, &mut controller, faulted_duration, &mut |e| {
                events.push(*e)
            });
        injected += 1;
        injected_counter.inc();

        let brownouts = sim.events().brownouts();
        let caught_up = events.len() >= reference.len();
        let prefix = events
            .get(..reference.len().min(events.len()))
            .unwrap_or(&[]);
        let prefix_match = caught_up && digest(prefix) == reference_digest;
        let resumed = events
            .last()
            .is_some_and(|last| last.at.seconds() > outage_end.seconds());
        let ok = brownouts >= 1 && prefix_match && resumed;
        if ok {
            recovered += 1;
            recovered_counter.inc();
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("power")),
            ("run", Value::str("outage")),
            ("boundary", Value::Num(boundary as f64)),
            ("outage_start_ms", Value::Num(outage_start.seconds() * 1e3)),
            ("outage_ms", Value::Num(outage_len.seconds() * 1e3)),
            ("brownouts", Value::Num(brownouts as f64)),
            ("rollbacks", Value::Num(progress.rollbacks as f64)),
            ("commits", Value::Num(events.len() as f64)),
            ("prefix_match", Value::Bool(prefix_match)),
            ("resumed", Value::Bool(resumed)),
            ("recovered", Value::Bool(ok)),
        ]));
    }

    Ok(PowerReport {
        lines,
        injected,
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_boundary_brownout_is_crash_consistent() {
        let config = CampaignConfig::smoke(7);
        let registry = Registry::new();
        let report = run(&config, &registry).expect("campaign runs");
        assert_eq!(report.injected, report.recovered, "{:?}", report.lines);
        assert!(report.injected >= 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.power.injected"), Some(report.injected));
        assert_eq!(
            snap.counter("chaos.power.recovered"),
            Some(report.recovered)
        );
    }

    #[test]
    fn commit_digest_separates_different_streams() {
        let a = CommitEvent {
            at: Seconds::new(0.0),
            iteration: 0,
            task: 0,
        };
        let b = CommitEvent {
            at: Seconds::new(0.0),
            iteration: 0,
            task: 1,
        };
        assert_ne!(digest(&[a, b]), digest(&[b, a]), "order reaches digest");
        assert_ne!(digest(&[a]), digest(&[a, b]), "length reaches digest");
        let a_later = CommitEvent {
            at: Seconds::new(9.9),
            ..a
        };
        assert_eq!(
            digest(&[a]),
            digest(&[a_later]),
            "timestamps deliberately excluded"
        );
    }
}
