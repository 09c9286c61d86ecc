//! The router surface: backend crashes, restarts, and slow backends
//! under live routed load.
//!
//! A 3-shard `hems-serve` set behind a live `hems-router` takes a
//! seeded fault sequence:
//!
//! * **backend_crash** — a seeded victim shard's process goes away
//!   mid-campaign; the retrying client's whole request set must keep
//!   answering (the router ejects the dead slot and walks its keys to
//!   the next shard on the ring), then the shard restarts on a *fresh
//!   port* and is repointed via hot reconfiguration, after which the
//!   router must report it healthy again;
//! * **slow_backend** — a victim shard is fronted by the net surface's
//!   chaos proxy in delay mode, sitting on every response; requests
//!   keep flowing and every answer must still be correct, then the slot
//!   is repointed back at the direct address.
//!
//! Recovery is judged against a warm **expected table**: every fault
//! episode replays the same plan set and every response must render
//! byte-identically to its pre-fault answer. One wrong plan — a stale
//! shard answering for a key it no longer owns, a half-open slot
//! leaking a bad response — forfeits the episode. Wall-clock jitter
//! (which shard ejects first, how many retries fire) never reaches the
//! report: lines carry only seeded choices and deterministic counts.

use crate::error::ChaosError;
use crate::net::{ChaosProxy, ConnFault};
use crate::plan::CampaignConfig;
use hems_obs::json::Value;
use hems_obs::Registry;
use hems_router::{route, HealthPolicy, RouterConfig, RouterHandle};
use hems_serve::{
    serve, Client, ClientError, QueryKind, RetryPolicy, ScenarioSpec, ServeConfig, ServerHandle,
};
use std::time::Duration;

/// Outcome of the router campaign.
#[derive(Debug)]
pub struct RouterReport {
    /// One JSON line per fault episode.
    pub lines: Vec<Value>,
    /// Fault episodes injected (crashes + slow backends).
    pub injected: u64,
    /// Episodes fully recovered: every response correct, slot healthy.
    pub recovered: u64,
}

const SHARDS: usize = 3;

fn spawn_shard(shard: usize) -> Result<ServerHandle, ChaosError> {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(1),
            cache_capacity: 256,
            shard_id: Some(shard as u64),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| ChaosError::new("router: spawn shard", e.to_string()))
}

/// The fixed plan set every episode replays: kinds rotate over the
/// cheap solver paths, irradiance walks the valid band.
fn plan_set(requests: usize) -> Vec<(QueryKind, ScenarioSpec)> {
    let kinds = [QueryKind::Mep, QueryKind::OptimalPoint, QueryKind::Sprint];
    (0..requests)
        .map(|i| {
            let kind = kinds
                .get(i % kinds.len())
                .copied()
                .unwrap_or(QueryKind::Mep);
            let spec = ScenarioSpec::baseline(0.25 + 0.1 * (i % 14) as f64);
            (kind, spec)
        })
        .collect()
}

/// Replays the plan set; returns how many answers matched `expected`.
fn replay(client: &mut Client, plans: &[(QueryKind, ScenarioSpec)], expected: &[String]) -> u64 {
    let mut matched = 0u64;
    for ((kind, spec), want) in plans.iter().zip(expected) {
        match client.plan(*kind, spec) {
            Ok(answer) if answer.result.render() == *want => matched += 1,
            _ => {}
        }
    }
    matched
}

/// Spin-waits (bounded) for a shard slot to report `state`.
fn await_state(router: &RouterHandle, shard: usize, state: &str, budget: Duration) -> bool {
    let tries = (budget.as_millis() / 10).max(1);
    for _ in 0..tries {
        if router.shard_state(shard) == Some(state) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    router.shard_state(shard) == Some(state)
}

/// Runs the router campaign. Fault tallies are double-entried into
/// `registry` (`chaos.router.injected` / `chaos.router.recovered`).
///
/// # Errors
///
/// Errors only when the tier itself cannot be started or the expected
/// table cannot be warmed; episodes that fail to recover are reported
/// in the returned lines, not as errors.
pub fn run(config: &CampaignConfig, registry: &Registry) -> Result<RouterReport, ChaosError> {
    let injected_counter = registry.counter("chaos.router.injected");
    let recovered_counter = registry.counter("chaos.router.recovered");
    let mut rng = config.plan().stream("router");

    let mut backends = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        backends.push(spawn_shard(shard)?);
    }
    let mut router = route(
        "127.0.0.1:0",
        RouterConfig {
            backends: backends.iter().map(ServerHandle::addr).collect(),
            verify_shard_ids: true,
            probe_interval: Duration::from_millis(20),
            health: HealthPolicy {
                eject_after: 2,
                rejoin_after: 1,
            },
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_secs(2),
            seed: rng.next_u64(),
            ..RouterConfig::default()
        },
    )
    .map_err(|e| ChaosError::new("router: start router", e.to_string()))?;
    let mut client = Client::new(
        router.addr(),
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            request_timeout: Duration::from_secs(2),
            jitter_seed: rng.next_u64(),
        },
    );

    // Warm every shard and pin the expected answer for each plan.
    let plans = plan_set(config.router_requests);
    let mut expected = Vec::with_capacity(plans.len());
    for (kind, spec) in &plans {
        match client.plan(*kind, spec) {
            Ok(answer) => expected.push(answer.result.render()),
            Err(ClientError::Rejected(message)) => {
                return Err(ChaosError::new("router: warm plan rejected", message))
            }
            Err(e) => return Err(ChaosError::new("router: warm plan", e.to_string())),
        }
    }

    let mut lines = Vec::new();
    let mut injected = 0u64;
    let mut recovered = 0u64;

    // -------- backend crash / restart episodes --------
    for episode in 0..config.router_crashes {
        let victim = rng.below_u32(SHARDS as u32) as usize;
        if let Some(backend) = backends.get_mut(victim) {
            backend.shutdown();
        }
        // Live load against the now 2-shard tier: the router must eject
        // the dead slot and reroute its keys with zero wrong answers.
        let matched_during = replay(&mut client, &plans, &expected);
        // Restart on a fresh port and hot-repoint the slot.
        let fresh = spawn_shard(victim)?;
        let fresh_addr = fresh.addr();
        if let Some(slot) = backends.get_mut(victim) {
            *slot = fresh;
        }
        let repointed = router.set_backend(victim, fresh_addr);
        let healthy_after =
            repointed && await_state(&router, victim, "healthy", Duration::from_secs(5));
        let matched_after = replay(&mut client, &plans, &expected);
        let total = plans.len() as u64;
        let ok = matched_during == total && matched_after == total && healthy_after;
        injected += 1;
        if ok {
            recovered += 1;
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("router")),
            ("fault", Value::str("backend_crash")),
            ("episode", Value::Num(episode as f64)),
            ("shard", Value::Num(victim as f64)),
            ("requests", Value::Num(total as f64)),
            ("matched_during", Value::Num(matched_during as f64)),
            ("matched_after", Value::Num(matched_after as f64)),
            ("healthy_after", Value::Bool(healthy_after)),
            ("recovered", Value::Bool(ok)),
        ]));
    }

    // -------- slow backend episodes --------
    for episode in 0..config.router_slow {
        let victim = rng.below_u32(SHARDS as u32) as usize;
        let delay_ms = u64::from(rng.range_u32(80, 160));
        let upstream = backends
            .get(victim)
            .map(ServerHandle::addr)
            .ok_or_else(|| ChaosError::new("router: slow victim", "shard index out of range"))?;
        let mut proxy = ChaosProxy::start(upstream, vec![ConnFault::Delay(delay_ms); 64])?;
        let through_proxy = router.set_backend(victim, proxy.addr());
        // The delayed slot answers slowly but correctly; the client's
        // per-attempt deadline (2 s) comfortably covers the delay, so
        // every response must still match the warm table.
        let matched_during = replay(&mut client, &plans, &expected);
        let restored = router.set_backend(victim, upstream);
        let healthy_after =
            restored && await_state(&router, victim, "healthy", Duration::from_secs(5));
        let matched_after = replay(&mut client, &plans, &expected);
        proxy.shutdown();
        let total = plans.len() as u64;
        let ok =
            through_proxy && matched_during == total && matched_after == total && healthy_after;
        injected += 1;
        if ok {
            recovered += 1;
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("router")),
            ("fault", Value::str("slow_backend")),
            ("episode", Value::Num(episode as f64)),
            ("shard", Value::Num(victim as f64)),
            ("delay_ms", Value::Num(delay_ms as f64)),
            ("requests", Value::Num(total as f64)),
            ("matched_during", Value::Num(matched_during as f64)),
            ("matched_after", Value::Num(matched_after as f64)),
            ("healthy_after", Value::Bool(healthy_after)),
            ("recovered", Value::Bool(ok)),
        ]));
    }

    injected_counter.add(injected);
    recovered_counter.add(recovered);
    router.shutdown();
    for backend in &mut backends {
        backend.shutdown();
    }
    Ok(RouterReport {
        lines,
        injected,
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_and_slow_episodes_recover_with_correct_answers() {
        let config = CampaignConfig::smoke(11);
        let registry = Registry::new();
        let report = run(&config, &registry).expect("router campaign");
        assert!(report.injected >= 2, "crash + slow episodes injected");
        assert_eq!(
            report.injected,
            report.recovered,
            "unrecovered router faults: {:?}",
            report.lines.iter().map(Value::render).collect::<Vec<_>>()
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.router.injected"), Some(report.injected));
        assert_eq!(
            snap.counter("chaos.router.recovered"),
            Some(report.recovered)
        );
    }
}
