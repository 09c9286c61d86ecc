//! In-process timings of each serving layer's public entry points, on
//! the workload's own request lines. These are the traced run's per-call
//! costs; the end-to-end runs never call them.

use crate::gen::{PlanKey, KINDS};
use crate::report::Outcome;
use crate::stats::{fnv1a, median};
use hems_serve::planner::{self, PlanJob};
use hems_serve::{PlanCache, QueryKind, Request, ScenarioSpec, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per call of `f` over `items`, repeated until at least ~20 ms
/// of work has been timed.
pub fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t0.elapsed().as_millis() < 20 {
        for item in items {
            f(black_box(item));
        }
        calls += items.len();
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// A request as the server sees it: parsed, built, and keyed.
pub fn job_for(key: &PlanKey) -> Result<PlanJob, String> {
    let line = String::from_utf8_lossy(&key.line(0)).into_owned();
    let request = Request::parse_line(line.trim_end()).map_err(|(_, e)| e)?;
    let spec = request.scenario.ok_or("plan line without a scenario")?;
    PlanJob::build(request.kind, spec)
}

/// The answer the server must send for `key`, solved in-process, with
/// the solve time in µs.
pub fn expected(key: &PlanKey) -> Result<(Value, f64), String> {
    let job = job_for(key)?;
    let t0 = Instant::now();
    let value = planner::answer(&job)?;
    Ok((value, t0.elapsed().as_nanos() as f64 / 1e3))
}

/// Expected result-byte hashes for `keys`, plus per-kind solve times, µs.
pub struct Expected {
    pub fnv: HashMap<PlanKey, u64>,
    pub answers: Vec<Value>,
    pub solve_us: Vec<Vec<f64>>,
}

pub fn solve_all(keys: &[PlanKey]) -> Result<Expected, String> {
    let mut out = Expected {
        fnv: HashMap::new(),
        answers: Vec::new(),
        solve_us: vec![Vec::new(); KINDS.len()],
    };
    for key in keys {
        if out.fnv.contains_key(key) {
            continue;
        }
        let (value, us) = expected(key)?;
        out.fnv.insert(*key, fnv1a(value.render().as_bytes()));
        out.solve_us[key.kind].push(us);
        out.answers.push(value);
    }
    Ok(out)
}

/// Records the serve-side per-call layers for `stream` (the lines the
/// server parsed) with a cache of `capacity` entries.
pub fn record_serve_layers(out: &mut Outcome, stream: &[PlanKey], capacity: usize, exp: &Expected) {
    let lines: Vec<String> = stream
        .iter()
        .take(4096)
        .enumerate()
        .map(|(i, k)| String::from_utf8_lossy(&k.line(i)).trim_end().to_string())
        .collect();
    out.set(
        "serve.parse_ns",
        per_call_ns(&lines, |l| {
            black_box(Request::parse_line(l).is_ok());
        }),
    );
    let specs: Vec<(QueryKind, ScenarioSpec)> = lines
        .iter()
        .filter_map(|l| Request::parse_line(l).ok())
        .filter_map(|r| Some((r.kind, r.scenario?)))
        .collect();
    out.set(
        "serve.build_ns",
        per_call_ns(&specs, |(_, s)| {
            black_box(s.build().is_ok());
        }),
    );
    let built: Vec<_> = specs
        .iter()
        .filter_map(|(k, s)| s.build().ok().map(|(c, p)| (*k, s.clone(), c, p)))
        .collect();
    out.set(
        "serve.key_ns",
        per_call_ns(&built, |(k, s, c, p)| {
            black_box(s.cache_key(*k, c, p));
        }),
    );
    let keys: Vec<u64> = built
        .iter()
        .map(|(k, s, c, p)| s.cache_key(*k, c, p))
        .collect();
    let value = "x".repeat(170);

    // Lookups against a cache holding every key the stream asks for.
    let warm = PlanCache::new(capacity.max(keys.len()));
    for k in &keys {
        warm.insert(*k, value.clone());
    }
    out.set(
        "serve.cache_get_ns",
        per_call_ns(&keys, |k| {
            black_box(warm.get(*k));
        }),
    );
    // Inserts into a full cache, so every new key evicts.
    let full = PlanCache::new(capacity);
    let mut filler = crate::gen::Rng::new(0x5eed, 99);
    for _ in 0..capacity * 2 {
        full.insert(filler.next_u64(), value.clone());
    }
    out.set(
        "serve.cache_insert_ns",
        per_call_ns(&keys, |k| {
            full.insert(*k ^ filler.next_u64(), value.clone())
        }),
    );
    out.set(
        "serve.render_ns",
        per_call_ns(&exp.answers, |v| {
            black_box(v.render());
        }),
    );
    for (kind, name) in [
        (0, "core.optimal_point_us"),
        (1, "core.mep_us"),
        (2, "core.sprint_us"),
        (4, "core.bypass_us"),
    ] {
        out.set(name, median(&exp.solve_us[kind]));
    }
    let sweeps: Vec<PlanJob> = exp
        .fnv
        .keys()
        .filter(|k| KINDS[k.kind] == "sweep_summary")
        .take(hems_sim::sweep::BATCH_LANES * 4)
        .filter_map(|k| job_for(k).ok())
        .collect();
    if !sweeps.is_empty() {
        let scenarios: Vec<_> = sweeps
            .iter()
            .enumerate()
            .map(|(i, job)| planner::scenario_for(job, i))
            .collect();
        let pool = hems_sim::WorkerPool::new(1);
        let t0 = Instant::now();
        black_box(hems_sim::sweep::run_scenarios_chunked(
            &scenarios,
            &pool,
            hems_sim::sweep::BATCH_LANES,
        ));
        out.set(
            "sim.sweep_chunked_us",
            t0.elapsed().as_nanos() as f64 / 1e3 / scenarios.len() as f64,
        );
    }
}

/// Records the router's in-process layers: canonical key and ring.
pub fn record_router_layers(out: &mut Outcome, stream: &[PlanKey], shards: usize) {
    let specs: Vec<(QueryKind, ScenarioSpec)> = stream
        .iter()
        .take(4096)
        .filter_map(|k| {
            let line = String::from_utf8_lossy(&k.line(0)).into_owned();
            let r = Request::parse_line(line.trim_end()).ok()?;
            Some((r.kind, r.scenario?))
        })
        .collect();
    out.set(
        "router.plan_key_ns",
        per_call_ns(&specs, |(k, s)| {
            black_box(hems_router::server::plan_key(*k, s).is_ok());
        }),
    );
    let ring = hems_router::HashRing::new(shards);
    let keys: Vec<u64> = specs
        .iter()
        .filter_map(|(k, s)| hems_router::server::plan_key(*k, s).ok())
        .collect();
    out.set(
        "router.ring_ns",
        per_call_ns(&keys, |k| {
            black_box(ring.route(*k, |_| true));
        }),
    );
}
