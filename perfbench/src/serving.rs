//! The four serving workloads: warm hits direct and routed, misses, and
//! connect-per-request churn. Servers run in this process with one solve
//! thread each; the load comes from at most two client threads.

use crate::gen::{hit_keys, miss_stream, zipf_stream, PlanKey};
use crate::layers::{self, Expected};
use crate::net::{self, Pacing, Pass};
use crate::report::{num, Outcome};
use crate::stats::{fnv1a, lowest, median, peak_rss_mb, percentile};
use crate::RunConfig;
use hems_router::{route, RouterConfig, RouterHandle};
use hems_serve::{serve, ServeConfig, ServerHandle, Value};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 5;
/// Share of the run spent at the nominal rate, where the client latency
/// (`load.p50_us`, `load.p99_us`) is measured; the saturation passes that
/// give `throughput_hz` take the rest.
const NOMINAL_SHARE: f64 = 0.4;
/// Unpaced passes per run; `throughput_hz` is the best of them.
const SATURATION_PASSES: usize = 6;
/// A pass is invalid when the pacer's median lag exceeds this share of
/// the median latency it measures.
const MAX_LAG_SHARE: f64 = 0.1;

/// One open-loop serving workload's traffic shape.
///
/// Each level runs as several short passes, each on a fresh connection,
/// and reports its least disturbed pass: on a shared virtual host other
/// tenants take CPU for seconds at a time, which a median over one long
/// pass cannot hide.
struct Shape {
    /// The fixed offered rate latency is measured at, req/s.
    nominal_hz: f64,
    /// Passes at the nominal rate.
    passes: usize,
    pacing: Pacing,
    /// Roughly what the system completes per second when saturated on a
    /// 2-core host; sizes the key lists of the unpaced saturation passes.
    capacity_hz: f64,
}

const HITS: Shape = Shape {
    nominal_hz: 2_000.0,
    passes: 12,
    pacing: Pacing::Spin,
    capacity_hz: 60_000.0,
};
const ROUTED: Shape = Shape {
    nominal_hz: 2_000.0,
    passes: 12,
    pacing: Pacing::Spin,
    capacity_hz: 20_000.0,
};
const MISSES: Shape = Shape {
    nominal_hz: 250.0,
    passes: 6,
    pacing: Pacing::Sleep,
    capacity_hz: 1_800.0,
};

/// The server's default plan-cache size, used by every hit workload.
const HIT_CACHE: usize = 1024;
/// Hit keyspace: well inside the plan cache.
const HIT_KEYS: usize = 256;
const ZIPF_S: f64 = 1.1;
/// Miss server cache: far smaller than the ~110k-key miss keyspace.
const MISS_CACHE: usize = 256;
/// Miss warm-up keys: one block of the miss mix, so every seed's set-up
/// solves the same work (and pays any first-solve costs).
const MISS_WARM: usize = 100;
/// Distinct miss keys checked against the in-process planner.
const MISS_CHECKED: usize = 96;
/// Keys a churn client draws from.
const CHURN_KEYS: usize = 64;
/// Most connections one churn run opens (keeps TIME_WAIT bounded).
const CHURN_MAX_CONNS: usize = 5_000;

/// A loopback shard with one solve thread and a miss queue deep enough
/// that no request is refused.
fn start_shard(cache_capacity: usize, shard_id: Option<u64>) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        threads: Some(1),
        cache_capacity,
        max_queue: 1 << 16,
        shard_id,
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", config).map_err(|e| format!("shard bind: {e}"))
}

/// Sends every key once, unpaced, and requires an ok answer for each.
fn warm(addr: SocketAddr, keys: &[PlanKey]) -> Result<(), String> {
    let pass = net::open_loop(addr, keys, f64::INFINITY, None, Pacing::Sleep)
        .map_err(|e| e.to_string())?;
    match pass.failures.first() {
        Some(why) => Err(format!("warm-up: {why}")),
        None => Ok(()),
    }
}

/// A running system under test: the address the load goes to and the
/// handles that keep it alive.
struct System {
    addr: SocketAddr,
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl System {
    fn shutdown(mut self) {
        if let Some(mut router) = self.router.take() {
            router.shutdown();
        }
        for shard in &mut self.shards {
            shard.shutdown();
        }
    }
}

/// Starts the system `SETUP_REPEATS` times (once when traced), keeps the
/// last, and records the fastest set-up.
fn set_up(
    cfg: &RunConfig,
    out: &mut Outcome,
    start: impl Fn() -> Result<System, String>,
) -> Result<System, String> {
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    let mut system = None;
    for _ in 0..repeats {
        if let Some(old) = system.take() {
            System::shutdown(old);
        }
        let t0 = Instant::now();
        system = Some(start()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", lowest(times.iter().copied()));
    system.ok_or_else(|| "no set-up ran".to_string())
}

fn start_direct(cache: usize, warm_keys: &[PlanKey]) -> Result<System, String> {
    let shard = start_shard(cache, None)?;
    warm(shard.addr(), warm_keys)?;
    Ok(System {
        addr: shard.addr(),
        shards: vec![shard],
        router: None,
    })
}

fn start_routed(seed: u64, warm_keys: &[PlanKey]) -> Result<System, String> {
    let shards = (0..2)
        .map(|i| start_shard(HIT_CACHE, Some(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let router = route(
        "127.0.0.1:0",
        RouterConfig {
            backends: shards.iter().map(ServerHandle::addr).collect(),
            seed,
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("router bind: {e}"))?;
    warm(router.addr(), warm_keys)?;
    Ok(System {
        addr: router.addr(),
        shards,
        router: Some(router),
    })
}

/// The passes at one offered rate (`INFINITY`: unpaced).
struct Level {
    rate: f64,
    parts: Vec<(Vec<PlanKey>, Pass)>,
}

impl Level {
    fn latencies(&self) -> Vec<Vec<f64>> {
        self.parts.iter().map(|(_, p)| p.latencies_us()).collect()
    }

    /// The lowest of the passes' medians.
    fn p50(&self) -> f64 {
        lowest(self.latencies().iter().map(|l| median(l)))
    }

    /// The lowest of the passes' p99s when every pass has 1 000 samples
    /// (ten beyond its p99), else the p99 of all samples together.
    fn p99(&self) -> f64 {
        let lat = self.latencies();
        if lat.iter().all(|l| l.len() >= 1_000) {
            lowest(lat.iter().map(|l| percentile(l, 0.99)))
        } else {
            percentile(&lat.concat(), 0.99)
        }
    }

    fn keys(&self) -> Vec<PlanKey> {
        self.parts
            .iter()
            .flat_map(|(k, _)| k.iter().copied())
            .collect()
    }

    /// The highest of the passes' ok answers per second.
    fn achieved_hz(&self) -> f64 {
        self.parts
            .iter()
            .map(|(_, p)| p.achieved_hz())
            .fold(0.0, f64::max)
    }

    fn lag_us(&self) -> Vec<f64> {
        self.parts
            .iter()
            .flat_map(|(_, p)| p.lag_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect()
    }

    fn run(
        addr: SocketAddr,
        plan: &Passes,
        keys_for: impl Fn(usize, usize) -> Vec<PlanKey>,
    ) -> Result<Level, String> {
        let mut parts = Vec::new();
        for part in 0..plan.count {
            let mut keys = keys_for(part, plan.len.max(1));
            let pass = net::open_loop(addr, &keys, plan.rate, plan.budget, plan.pacing)
                .map_err(|e| e.to_string())?;
            keys.truncate(pass.lag_ns.len());
            parts.push((keys, pass));
        }
        Ok(Level {
            rate: plan.rate,
            parts,
        })
    }
}

/// `count` passes of up to `len` keys each at `rate` (infinite: unpaced),
/// each stopped after `budget` when one is given.
struct Passes {
    rate: f64,
    count: usize,
    len: usize,
    budget: Option<Duration>,
    pacing: Pacing,
}

/// The nominal level, then (untraced runs only) the unpaced saturation
/// level. `keys_for(stream, len)` draws one pass's keys. `peak_rss_mb` is
/// read after the nominal level, before the saturation passes allocate
/// their much longer key lists.
fn measure(
    cfg: &RunConfig,
    out: &mut Outcome,
    addr: SocketAddr,
    shape: &Shape,
    keys_for: impl Fn(usize, usize) -> Vec<PlanKey>,
) -> Result<Vec<Level>, String> {
    let rate = shape.nominal_hz * cfg.rate_scale();
    let nominal = Passes {
        rate,
        count: shape.passes,
        len: (rate * NOMINAL_SHARE * cfg.seconds / shape.passes as f64) as usize,
        budget: None,
        pacing: shape.pacing,
    };
    let mut levels = vec![Level::run(addr, &nominal, &keys_for)?];
    out.set("peak_rss_mb", peak_rss_mb());
    if !cfg.trace {
        // Unpaced, for a fixed time: keys for three times the expected
        // capacity, so a faster system never runs out of requests.
        let secs = (1.0 - NOMINAL_SHARE) * cfg.seconds / SATURATION_PASSES as f64;
        let saturation = Passes {
            rate: f64::INFINITY,
            count: SATURATION_PASSES,
            len: (3.0 * shape.capacity_hz * cfg.rate_scale() * secs) as usize,
            budget: Some(Duration::from_secs_f64(secs)),
            pacing: shape.pacing,
        };
        levels.push(Level::run(addr, &saturation, |part, n| {
            keys_for(shape.passes + part, n)
        })?);
    }
    Ok(levels)
}

/// Records the end-to-end metrics and counts of the levels, and checks
/// the pacer kept up at the nominal rate.
fn record_levels(out: &mut Outcome, levels: &[Level]) {
    let nominal = &levels[0];
    let p50 = nominal.p50();
    out.set("load.p50_us", p50);
    out.set("load.p99_us", nominal.p99());
    if let Some(saturation) = levels.get(1) {
        out.set("throughput_hz", saturation.achieved_hz());
    }
    record_lag(out, &nominal.lag_us(), p50);
    for level in levels {
        // Unpaced passes time requests from the pass start: only their
        // rate means anything.
        let paced = level.rate.is_finite();
        let lat = |q: f64| {
            if paced {
                lowest(level.latencies().iter().map(|l| percentile(l, q)))
            } else {
                0.0
            }
        };
        out.notes.push(format!(
            "{{\"level\":{{\"offered_hz\":{},\"achieved_hz\":{},\"passes_hz\":[{}],\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}}}",
            num(if paced { level.rate } else { 0.0 }),
            num(level.achieved_hz()),
            level
                .parts
                .iter()
                .map(|(_, p)| num(p.achieved_hz()))
                .collect::<Vec<_>>()
                .join(","),
            num(lat(0.5)),
            num(lat(0.9)),
            num(lat(0.99)),
        ));
        for (keys, pass) in &level.parts {
            out.attempted += keys.len() as u64;
            out.failed += pass.failed as u64;
            for why in &pass.failures {
                out.notes.push(format!("{{\"failure\":{why:?}}}"));
            }
        }
    }
}

fn record_lag(out: &mut Outcome, lag: &[f64], p50_us: f64) {
    let lag_p50 = median(lag);
    out.set("load.lag_p50_us", lag_p50);
    out.set("load.lag_p99_us", percentile(lag, 0.99));
    out.set("load.sent", lag.len() as f64);
    if lag_p50 > MAX_LAG_SHARE * p50_us {
        out.reject(format!(
            "pacer lag p50 {lag_p50:.1} us is not small next to p50 {p50_us:.1} us"
        ));
    }
}

/// Checks every ok response whose key is in `exp` against the
/// in-process answer.
fn check_answers(out: &mut Outcome, levels: &[Level], exp: &Expected) {
    let mut checked = 0usize;
    for (keys, pass) in levels.iter().flat_map(|l| &l.parts) {
        for (i, key) in keys.iter().enumerate() {
            let (Some(_), Some(want)) = (pass.latency_ns[i], exp.fnv.get(key)) else {
                continue;
            };
            checked += 1;
            if pass.result_fnv[i] != *want {
                out.reject(format!("request {i} ({}) answered other bytes", key.body()));
                return;
            }
        }
    }
    if checked == 0 {
        out.reject("no response could be checked");
    }
}

/// Order-independent digest of a pass's answers.
fn digest(pass: &Pass) -> u64 {
    pass.result_fnv
        .iter()
        .enumerate()
        .filter(|(i, _)| pass.latency_ns[*i].is_some())
        .fold(0u64, |acc, (i, h)| {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            bytes[8..].copy_from_slice(&h.to_le_bytes());
            acc.wrapping_add(fnv1a(&bytes))
        })
}

fn stat(v: &Value, name: &str) -> f64 {
    v.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Batcher counters over the nominal pass, from the shard's `stats`.
fn record_batcher(out: &mut Outcome, before: &Value, after: &Value) {
    let d = |name| stat(after, name) - stat(before, name);
    let (batches, jobs, misses) = (d("batches"), d("batched_jobs"), d("misses"));
    out.set("serve.batches", batches);
    out.set(
        "serve.batch_mean",
        if batches > 0.0 { jobs / batches } else { 0.0 },
    );
    out.set(
        "serve.dedup_ratio",
        if jobs > 0.0 { misses / jobs } else { 0.0 },
    );
}

/// Cached answers over ok answers at the nominal rate.
fn record_hit_ratio(out: &mut Outcome, level: &Level) {
    let (mut ok, mut cached) = (0usize, 0usize);
    for (_, pass) in &level.parts {
        for (i, lat) in pass.latency_ns.iter().enumerate() {
            ok += usize::from(lat.is_some());
            cached += usize::from(lat.is_some() && pass.cached[i]);
        }
    }
    out.set("serve.hit_ratio", cached as f64 / ok.max(1) as f64);
}

fn record_floor(out: &mut Outcome, addr: SocketAddr) -> Result<(), String> {
    let rtt = net::round_trips(addr, net::READY_LINE, 2_000).map_err(|e| e.to_string())?;
    out.set("serve.floor_us", median(&rtt));
    Ok(())
}

fn distinct(keys: impl IntoIterator<Item = PlanKey>) -> Vec<PlanKey> {
    let mut seen = HashSet::new();
    keys.into_iter().filter(|k| seen.insert(*k)).collect()
}

fn hit_stream(seed: u64, keys: &[PlanKey], stream: usize, len: usize) -> Vec<PlanKey> {
    zipf_stream(seed, 10 + stream as u64, keys.len(), ZIPF_S, len)
        .into_iter()
        .map(|rank| keys[rank])
        .collect()
}

pub fn plan_hits(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let keys = hit_keys(cfg.seed, cfg.scale(HIT_KEYS));
    let system = set_up(cfg, &mut out, || start_direct(HIT_CACHE, &keys))?;
    let before = system.shards[0].stats_snapshot();
    let levels = measure(cfg, &mut out, system.addr, &HITS, |r, n| {
        hit_stream(cfg.seed, &keys, r, n)
    })?;
    let after = system.shards[0].stats_snapshot();
    record_levels(&mut out, &levels);
    let exp = layers::solve_all(&keys)?;
    check_answers(&mut out, &levels, &exp);
    if cfg.trace {
        record_hit_ratio(&mut out, &levels[0]);
        record_batcher(&mut out, &before, &after);
        record_floor(&mut out, system.addr)?;
        layers::record_serve_layers(&mut out, &levels[0].keys(), HIT_CACHE, &exp);
        let parts = [
            ("floor", out.values["serve.floor_us"]),
            ("parse", out.values["serve.parse_ns"] / 1e3),
            ("build", out.values["serve.build_ns"] / 1e3),
            ("key", out.values["serve.key_ns"] / 1e3),
            ("cache_get", out.values["serve.cache_get_ns"] / 1e3),
        ];
        out.notes.push(ledger(
            "plan_hits",
            "load.p50_us",
            out.values["load.p50_us"],
            &parts,
        ));
    }
    system.shutdown();
    Ok(out)
}

pub fn plan_routed(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let keys = hit_keys(cfg.seed, cfg.scale(HIT_KEYS));
    let system = set_up(cfg, &mut out, || start_routed(cfg.seed, &keys))?;
    let router = system.router.as_ref().expect("routed system has a router");
    let before = router.stats_value();
    let levels = measure(cfg, &mut out, system.addr, &ROUTED, |r, n| {
        hit_stream(cfg.seed, &keys, r, n)
    })?;
    let after = router.stats_value();
    record_levels(&mut out, &levels);
    let exp = layers::solve_all(&keys)?;
    check_answers(&mut out, &levels, &exp);

    // The same streams straight to one shard must give the same answers.
    let direct = start_direct(HIT_CACHE, &keys)?;
    let nominal = &levels[0];
    let rate = if cfg.trace {
        nominal.rate
    } else {
        f64::INFINITY
    };
    let mut replay = Level {
        rate,
        parts: Vec::new(),
    };
    for (keys, routed) in &nominal.parts {
        let pass = net::open_loop(direct.addr, keys, rate, None, ROUTED.pacing)
            .map_err(|e| e.to_string())?;
        if pass.failed > 0 || digest(&pass) != digest(routed) {
            out.reject("routed and direct answers differ");
        }
        replay.parts.push((keys.clone(), pass));
    }
    if cfg.trace {
        let routed_p50 = out.values["load.p50_us"];
        let direct_p50 = replay.p50();
        out.set("router.added_us", routed_p50 - direct_p50);
        let forwarded = |stats: &Value| -> Vec<f64> {
            let backends = stats.get("backends").and_then(Value::as_arr);
            backends.map_or(Vec::new(), |b| {
                b.iter().map(|v| stat(v, "forwarded")).collect()
            })
        };
        let shares: Vec<f64> = forwarded(&after)
            .iter()
            .zip(forwarded(&before).iter().chain(std::iter::repeat(&0.0)))
            .map(|(now, was)| now - was)
            .collect();
        let total: f64 = shares.iter().sum();
        out.set(
            "router.shard_share_max",
            shares.iter().cloned().fold(0.0, f64::max) / total.max(1.0),
        );
        record_hit_ratio(&mut out, nominal);
        let shard0 = system.shards[0].addr();
        record_floor(&mut out, shard0)?;
        let backend = hems_router::backend::Backend::new(shard0);
        let dial = hems_router::backend::DialConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            expect_shard: Some(0),
        };
        let forward_lines: Vec<String> = nominal
            .keys()
            .iter()
            .take(2_000)
            .map(|k| String::from_utf8_lossy(&k.line(0)).trim_end().to_string())
            .collect();
        let mut forward_us = Vec::new();
        for line in &forward_lines {
            let t0 = Instant::now();
            backend
                .forward(line, &dial)
                .map_err(|e| format!("forward: {e}"))?;
            forward_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        out.set("router.forward_us", median(&forward_us[1..]));
        layers::record_serve_layers(&mut out, &nominal.keys(), HIT_CACHE, &exp);
        layers::record_router_layers(&mut out, &nominal.keys(), 2);
        let parts = [
            ("hop", out.values["serve.floor_us"]),
            ("parse", out.values["serve.parse_ns"] / 1e3),
            ("plan_key", out.values["router.plan_key_ns"] / 1e3),
            ("ring", out.values["router.ring_ns"] / 1e3),
        ];
        out.notes.push(ledger(
            "plan_routed",
            "router.added_us",
            routed_p50 - direct_p50,
            &parts,
        ));
    }
    direct.shutdown();
    system.shutdown();
    Ok(out)
}

pub fn plan_misses(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let warm_keys = miss_stream(cfg.seed, 1_000, MISS_WARM);
    let system = set_up(cfg, &mut out, || start_direct(MISS_CACHE, &warm_keys))?;
    let before = system.shards[0].stats_snapshot();
    let levels = measure(cfg, &mut out, system.addr, &MISSES, |r, n| {
        miss_stream(cfg.seed, 20 + r as u64, n)
    })?;
    let after = system.shards[0].stats_snapshot();
    record_levels(&mut out, &levels);

    // A seeded sample of the answered keys, checked and timed in-process.
    let answered = distinct(
        levels
            .iter()
            .flat_map(|l| &l.parts)
            .flat_map(|(keys, pass)| {
                keys.iter()
                    .enumerate()
                    .filter(|(i, _)| pass.latency_ns[*i].is_some())
            })
            .map(|(_, k)| *k),
    );
    let mut rng = crate::gen::Rng::new(cfg.seed, 77);
    let sample: Vec<PlanKey> = (0..cfg.scale(MISS_CHECKED).min(answered.len()))
        .map(|_| answered[rng.below(answered.len())])
        .collect();
    let exp = layers::solve_all(&sample)?;
    check_answers(&mut out, &levels, &exp);
    if cfg.trace {
        let nominal = &levels[0];
        record_hit_ratio(&mut out, nominal);
        record_batcher(&mut out, &before, &after);
        record_floor(&mut out, system.addr)?;
        layers::record_serve_layers(&mut out, &nominal.keys(), MISS_CACHE, &exp);
        let miss_lat: Vec<f64> = nominal
            .parts
            .iter()
            .flat_map(|(_, pass)| {
                (0..pass.cached.len())
                    .filter(|&i| !pass.cached[i])
                    .filter_map(|i| pass.latency_ns[i])
            })
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let solve: Vec<f64> = exp.solve_us.iter().flatten().cloned().collect();
        let front = (out.values["serve.parse_ns"]
            + out.values["serve.build_ns"]
            + out.values["serve.key_ns"])
            / 1e3;
        out.set(
            "serve.queue_wait_us",
            median(&miss_lat) - median(&solve) - front,
        );
    }
    system.shutdown();
    Ok(out)
}

pub fn connect_churn(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let keys = hit_keys(cfg.seed, cfg.scale(CHURN_KEYS));
    let system = set_up(cfg, &mut out, || start_direct(HIT_CACHE, &keys))?;
    let exp = layers::solve_all(&keys)?;
    let stream = hit_stream(cfg.seed, &keys, 0, cfg.scale(CHURN_MAX_CONNS));
    let (mut connect, mut first, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut cached = 0usize;
    let t0 = Instant::now();
    for key in &stream {
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        out.attempted += 1;
        let failure = match net::fresh_round_trip(system.addr, &key.line(0)) {
            Ok((c, f, t, line)) => match net::parse_response(&line) {
                Some(r) if r.ok && fnv1a(r.result.as_bytes()) == exp.fnv[key] => {
                    cached += usize::from(r.cached);
                    connect.push(c as f64 / 1e3);
                    first.push(f as f64 / 1e3);
                    total.push(t as f64 / 1e3);
                    None
                }
                Some(r) if r.ok => {
                    out.reject(format!("({}) answered other bytes", key.body()));
                    None
                }
                _ => Some(line),
            },
            Err(e) => Some(e.to_string()),
        };
        if let Some(why) = failure {
            out.failed += 1;
            out.notes.push(format!("{{\"failure\":{why:?}}}"));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    out.set("load.p50_us", median(&total));
    out.set("load.p99_us", percentile(&total, 0.99));
    out.set("throughput_hz", total.len() as f64 / elapsed);
    if cfg.trace {
        out.set("serve.connect_us", median(&connect));
        out.set("serve.first_response_us", median(&first));
        out.set("serve.hit_ratio", cached as f64 / total.len().max(1) as f64);
        out.set("load.sent", total.len() as f64);
        record_floor(&mut out, system.addr)?;
        layers::record_serve_layers(&mut out, &stream[..total.len()], HIT_CACHE, &exp);
    }
    system.shutdown();
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// A ledger line: how far the named parts explain a whole.
pub fn ledger(workload: &str, whole_name: &str, whole: f64, parts: &[(&str, f64)]) -> String {
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let fields: Vec<String> = parts
        .iter()
        .map(|(n, v)| format!("\"{n}\":{}", crate::report::num(*v)))
        .collect();
    format!(
        "{{\"ledger\":\"{workload}\",\"whole\":\"{whole_name}\",\"whole_value\":{},\"parts\":{{{}}},\"explained_share\":{}}}",
        crate::report::num(whole),
        fields.join(","),
        crate::report::num(if whole != 0.0 { sum / whole } else { 0.0 })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// A line-by-line proxy to `backend` that, when `corrupt` is set,
    /// changes one digit of the `corrupt`-th ok result it relays.
    fn stub(backend: SocketAddr, corrupt: Option<usize>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let mut relayed_ok = 0usize;
            for client in listener.incoming() {
                let client = client.unwrap();
                let mut upstream = TcpStream::connect(backend).unwrap();
                let mut from_upstream = BufReader::new(upstream.try_clone().unwrap());
                let mut to_client = client.try_clone().unwrap();
                for line in BufReader::new(client).lines() {
                    let Ok(line) = line else { break };
                    upstream.write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut response = String::new();
                    from_upstream.read_line(&mut response).unwrap();
                    if let Some(at) = response.find("\"result\":") {
                        relayed_ok += 1;
                        if corrupt == Some(relayed_ok) {
                            let digit =
                                at + response[at..].find(|c: char| c.is_ascii_digit()).unwrap();
                            let old = response.as_bytes()[digit];
                            let new = if old == b'9' { "0" } else { "9" };
                            response.replace_range(digit..=digit, new);
                        }
                    }
                    to_client.write_all(response.as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    fn hits_through(corrupt: Option<usize>) -> Outcome {
        let _serial = crate::TEST_LOCK.lock();
        let cfg = RunConfig {
            seed: 5,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let keys = hit_keys(cfg.seed, 16);
        let system = start_direct(HIT_CACHE, &keys).unwrap();
        let addr = stub(system.addr, corrupt);
        let mut out = Outcome {
            correct: true,
            ..Outcome::default()
        };
        let levels = measure(&cfg, &mut out, addr, &HITS, |r, n| {
            hit_stream(cfg.seed, &keys, r, n)
        })
        .unwrap();
        record_levels(&mut out, &levels);
        check_answers(&mut out, &levels, &layers::solve_all(&keys).unwrap());
        system.shutdown();
        out
    }

    #[test]
    fn an_honest_relay_passes_the_answer_check() {
        let out = hits_through(None);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn one_altered_answer_byte_fails_the_answer_check() {
        let out = hits_through(Some(40));
        assert!(!out.correct);
        assert!(
            out.notes.iter().any(|n| n.contains("answered other bytes")),
            "{:?}",
            out.notes
        );
    }
}
