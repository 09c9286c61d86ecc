//! The fleet surface: regional brownout storms across a digital twin.
//!
//! The other surfaces fault one node, one pool, one socket. This one
//! faults a *deployment*: a seeded [`hems_fleet::Fleet`] campaign whose
//! weather field injects regional brownout storms — correlated harvest
//! collapses that kill every node inside a moving rectangle of sky at
//! once — while sampled nodes accumulate commit-stream prefix digests.
//!
//! A storm counts as recovered only if the sampled cohort demonstrably
//! made progress through it (commits, or rollbacks in the Sisyphus
//! regime where every burst dies mid-task) *and* the campaign ends with
//! zero crash-consistency violations: every sampled digest must equal
//! the digest of the contiguous stream `0..committed` recomputed from
//! scratch. A single lost, repeated, or reordered commit anywhere in
//! the fleet forfeits every storm.
//!
//! The fleet's own seed is drawn from this surface's RNG stream, so the
//! campaign seed reaches the storms through the same funnel as every
//! other injected fault.

use crate::error::ChaosError;
use crate::plan::CampaignConfig;
use hems_fleet::{AnalyticPlans, Fleet, FleetConfig};
use hems_obs::json::Value;
use hems_obs::Registry;

/// Outcome of the fleet campaign.
#[derive(Debug)]
pub struct FleetReport {
    /// One JSON line per storm, plus the campaign line.
    pub lines: Vec<Value>,
    /// Regional brownout storms injected.
    pub injected: u64,
    /// Storms survived with clean sampled digests fleet-wide.
    pub recovered: u64,
}

fn fleet_config(config: &CampaignConfig) -> FleetConfig {
    // 52 bits keeps the seed exact through the report's f64 JSON numbers.
    let seed = config.plan().stream("fleet").next_u64() >> 12;
    let mut fc = FleetConfig::new(seed, config.fleet_nodes);
    fc.days = 1;
    fc.grid_w = config.fleet_grid;
    fc.grid_h = config.fleet_grid;
    fc.storms_per_day = config.fleet_storms;
    fc.sampled = config.fleet_nodes.min(8);
    fc
}

/// Runs the fleet campaign. Fault tallies are double-entried into
/// `registry` (`chaos.fleet.injected` / `chaos.fleet.recovered`) so the
/// campaign summary reads its counts back from the shared telemetry
/// registry.
///
/// # Errors
///
/// Errors only when the fleet itself cannot be built or run (an invalid
/// derived config); storms that fail to recover are reported in the
/// returned lines, not as errors.
pub fn run(config: &CampaignConfig, registry: &Registry) -> Result<FleetReport, ChaosError> {
    let injected_counter = registry.counter("chaos.fleet.injected");
    let recovered_counter = registry.counter("chaos.fleet.recovered");
    let fc = fleet_config(config);
    let fleet = Fleet::new(fc).map_err(|e| ChaosError::new("fleet: build", e.to_string()))?;
    let mut source = AnalyticPlans::new();
    let report = fleet
        .run(&mut source)
        .map_err(|e| ChaosError::new("fleet: campaign", e.to_string()))?;

    let injected = report.storms;
    // Violations are fleet-wide: one broken digest forfeits every storm.
    let clean = report.violations == 0;
    let recovered = if clean { report.storms_recovered } else { 0 };
    injected_counter.add(injected);
    recovered_counter.add(recovered);

    let mut lines = Vec::new();
    for line in &report.lines {
        if line.get("event").and_then(Value::as_str) != Some("storm") {
            continue;
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("fleet")),
            ("run", Value::str("storm")),
            ("storm", line.clone()),
            ("violations_clean", Value::Bool(clean)),
        ]));
    }
    lines.push(Value::obj(vec![
        ("surface", Value::str("fleet")),
        ("run", Value::str("campaign")),
        ("fleet_seed", Value::Num(fc.seed as f64)),
        ("nodes", Value::Num(fc.nodes as f64)),
        ("grid", Value::Num(fc.grid_w as f64)),
        ("storms", Value::Num(injected as f64)),
        ("recovered", Value::Num(recovered as f64)),
        ("violations", Value::Num(report.violations as f64)),
        ("committed", Value::Num(report.committed as f64)),
    ]));

    Ok(FleetReport {
        lines,
        injected,
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regional_storms_leave_zero_crash_consistency_violations() {
        let config = CampaignConfig::smoke(7);
        let registry = Registry::new();
        let report = run(&config, &registry).expect("campaign runs");
        assert!(report.injected >= 1, "a storm must actually be injected");
        assert_eq!(report.injected, report.recovered, "{:?}", report.lines);
        let campaign = report.lines.last().expect("campaign line");
        assert_eq!(
            campaign.get("violations").and_then(Value::as_f64),
            Some(0.0)
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.fleet.injected"), Some(report.injected));
        assert_eq!(
            snap.counter("chaos.fleet.recovered"),
            Some(report.recovered)
        );
    }

    #[test]
    fn fleet_seed_derives_from_the_campaign_seed() {
        let a = fleet_config(&CampaignConfig::smoke(7));
        let b = fleet_config(&CampaignConfig::smoke(7));
        let c = fleet_config(&CampaignConfig::smoke(8));
        assert_eq!(a.seed, b.seed, "same campaign seed, same fleet seed");
        assert_ne!(a.seed, c.seed, "the campaign seed reaches the fleet");
        assert!(a.seed < (1 << 52), "seed stays exact as an f64");
    }
}
