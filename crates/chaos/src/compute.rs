//! The compute surface: panics and latency inside the worker pool.
//!
//! Each round fans a seeded mix of jobs across a [`hems_sim::WorkerPool`]:
//! some compute a deterministic value, some stall first (artificial
//! latency — a slot that finishes late must not corrupt its neighbours'
//! slots), and some panic outright. `run_jobs_result` must hand back an
//! `Err` for exactly the panicking slots and the *correct* value for
//! every other slot, round after round, on the same pool — the
//! catch_unwind isolation holding under repeated, concurrent failure.

use crate::error::ChaosError;
use crate::plan::CampaignConfig;
use hems_core::cachekey::KeyHasher;
use hems_obs::json::Value;
use hems_obs::Registry;
use hems_sim::WorkerPool;
use std::thread;
use std::time::Duration;

/// Outcome of the compute campaign.
#[derive(Debug)]
pub struct ComputeReport {
    /// One JSON line per round.
    pub lines: Vec<Value>,
    /// Panics injected.
    pub injected: u64,
    /// Panics that were isolated to their slot with every healthy slot
    /// answering correctly.
    pub recovered: u64,
}

/// What one job is scripted to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobFault {
    /// Compute the expected value.
    None,
    /// Sleep this many milliseconds first, then compute.
    Latency(u64),
    /// Panic instead of computing.
    Panic,
}

/// The value a healthy job `(round, slot)` must return.
fn expected(round: u64, slot: u64) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("compute-job");
    hasher.write_u64(round);
    hasher.write_u64(slot);
    hasher.finish()
}

/// Runs the compute campaign. Fault tallies are double-entried into
/// `registry` (`chaos.compute.injected` / `chaos.compute.recovered`).
///
/// # Errors
///
/// Errors only if the pool cannot be built; isolation failures are
/// reported in the lines.
pub fn run(config: &CampaignConfig, registry: &Registry) -> Result<ComputeReport, ChaosError> {
    let injected_counter = registry.counter("chaos.compute.injected");
    let recovered_counter = registry.counter("chaos.compute.recovered");
    let pool = WorkerPool::with_default_threads(Some(4));
    let mut rng = config.plan().stream("compute");
    let mut lines = Vec::new();
    let mut injected = 0u64;
    let mut recovered = 0u64;
    for round in 0..config.compute_rounds as u64 {
        let faults: Vec<JobFault> = (0..config.compute_jobs)
            .map(|_| match rng.below_u32(4) {
                0 => JobFault::Panic,
                1 => JobFault::Latency(1 + rng.below_u32(4) as u64),
                _ => JobFault::None,
            })
            .collect();
        let jobs: Vec<_> = faults
            .iter()
            .enumerate()
            .map(|(slot, fault)| {
                let fault = *fault;
                let slot = slot as u64;
                move || {
                    match fault {
                        JobFault::None => {}
                        JobFault::Latency(ms) => thread::sleep(Duration::from_millis(ms)),
                        JobFault::Panic => {
                            // hems-lint: allow(panic, reason = "chaos campaign: the injected fault under test, caught by run_jobs_result")
                            panic!("chaos: injected compute fault r{round} s{slot}");
                        }
                    }
                    expected(round, slot)
                }
            })
            .collect();
        let outcomes = pool.run_jobs_result(jobs);

        let mut panics = 0u64;
        let mut caught = 0u64;
        let mut correct = 0u64;
        let mut wrong = 0u64;
        for (slot, (fault, outcome)) in faults.iter().zip(&outcomes).enumerate() {
            match (fault, outcome) {
                (JobFault::Panic, Err(e)) if e.message().contains("chaos:") => {
                    panics += 1;
                    caught += 1;
                }
                (JobFault::Panic, _) => panics += 1,
                (_, Ok(v)) if *v == expected(round, slot as u64) => correct += 1,
                _ => wrong += 1,
            }
        }
        injected += panics;
        injected_counter.add(panics);
        let isolated = caught == panics && wrong == 0 && outcomes.len() == faults.len();
        if isolated {
            recovered += panics;
            recovered_counter.add(panics);
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("compute")),
            ("round", Value::Num(round as f64)),
            ("jobs", Value::Num(faults.len() as f64)),
            ("panics", Value::Num(panics as f64)),
            ("caught", Value::Num(caught as f64)),
            ("correct", Value::Num(correct as f64)),
            ("isolated", Value::Bool(isolated)),
        ]));
    }
    Ok(ComputeReport {
        lines,
        injected,
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_concurrent_panics_stay_isolated() {
        let registry = Registry::new();
        let report = run(&CampaignConfig::smoke(7), &registry).expect("campaign runs");
        assert!(report.injected > 0, "the seed must inject at least once");
        assert_eq!(report.injected, report.recovered, "{:?}", report.lines);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("chaos.compute.injected"),
            Some(report.injected)
        );
    }

    #[test]
    fn expected_values_differ_per_slot() {
        assert_ne!(expected(0, 1), expected(0, 2));
        assert_ne!(expected(0, 1), expected(1, 1));
        assert_eq!(expected(3, 4), expected(3, 4));
    }
}
