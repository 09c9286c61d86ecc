//! The service benchmark: cold (cache-miss) vs warm (cache-hit) request
//! latency and concurrent warm throughput over a loopback connection,
//! written to `BENCH_serve.json` at the repo root.
//!
//! Unlike the solver benches this measures the *service* — parse, cache,
//! batch, pool, render, socket — so the numbers are end-to-end request
//! latencies as a client sees them:
//!
//! 1. **Cold pass** — a set of distinct scenarios (every plan query kind,
//!    several light levels), each a guaranteed cache miss that pays a
//!    batched solver run.
//! 2. **Warm pass** — the identical requests again; every one must hit
//!    the plan cache. Outside smoke mode the report asserts warm p95 <
//!    cold p95 — the cache earning its keep is the crate's headline
//!    claim, so the bench fails loudly if it regresses.
//! 3. **Concurrent warm throughput** — 4 client threads replaying the
//!    warm set; reported as requests/second.
//!
//! The written JSON is re-read and re-parsed with the crate's own parser
//! before the bench exits, so a malformed report can never land on disk
//! silently. Smoke mode (`HEMS_BENCH_SMOKE=1`) shrinks the scenario set
//! and skips the warm<cold assertion (one sample proves nothing).

use hems_obs::clock::monotonic_ns;
use hems_obs::percentile;
use hems_serve::json::{parse, Value};
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_serve::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Distinct plan requests: every cacheable query kind at several light
/// levels (and a couple of off-baseline scenarios so the canonicalizer
/// earns its keep).
fn request_set(smoke: bool) -> Vec<(i64, QueryKind, ScenarioSpec)> {
    let kinds = [
        QueryKind::OptimalPoint,
        QueryKind::Mep,
        QueryKind::Bypass,
        QueryKind::Sprint,
        QueryKind::SweepSummary,
    ];
    let levels: &[f64] = if smoke {
        &[1.0]
    } else {
        // All in the regime where every query kind is feasible — below
        // ~0.15 sun the joint plan correctly errors, which belongs to the
        // planner tests, not a latency benchmark.
        &[1.0, 0.75, 0.5, 0.35, 0.25]
    };
    let mut out = Vec::new();
    let mut id = 0i64;
    for &g in levels {
        for kind in kinds {
            let mut spec = ScenarioSpec::baseline(g);
            spec.duration = 0.01;
            if kind == QueryKind::Sprint {
                spec.deadline = Some(0.01);
            }
            // Every other scenario doubles the storage cap so the key
            // space isn't irradiance-only.
            if id % 2 == 1 {
                spec.capacitance = Some(6.6e-5);
            }
            id += 1;
            out.push((id, kind, spec));
        }
    }
    out
}

/// Sends one request and waits for its response; returns the latency in
/// nanoseconds and the parsed response.
fn round_trip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> (f64, Value) {
    let started = monotonic_ns();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let ns = monotonic_ns().saturating_sub(started) as f64;
    (ns, parse(&response).expect("response parses"))
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Runs the full request set once on one connection; returns sorted
/// per-request latencies and the observed `cached` flags.
fn run_pass(
    addr: std::net::SocketAddr,
    requests: &[(i64, QueryKind, ScenarioSpec)],
) -> (Vec<f64>, usize) {
    let (mut stream, mut reader) = connect(addr);
    let mut latencies = Vec::with_capacity(requests.len());
    let mut cached = 0usize;
    for (id, kind, spec) in requests {
        let line = Request::render_line(*id, *kind, Some(spec));
        let (ns, response) = round_trip(&mut stream, &mut reader, &line);
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("ok"),
            "bench request failed: {response:?}"
        );
        if response.get("cached").and_then(Value::as_bool) == Some(true) {
            cached += 1;
        }
        latencies.push(ns);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (latencies, cached)
}

fn pass_json(sorted_ns: &[f64]) -> (f64, Value) {
    let p50 = percentile(sorted_ns, 50.0);
    let p95 = percentile(sorted_ns, 95.0);
    let mean = sorted_ns.iter().sum::<f64>() / sorted_ns.len() as f64;
    let json = Value::obj(vec![
        ("requests", Value::Num(sorted_ns.len() as f64)),
        ("p50_ns", Value::Num(p50)),
        ("p95_ns", Value::Num(p95)),
        ("mean_ns", Value::Num(mean)),
        ("throughput_per_sec", Value::Num(1e9 / mean)),
    ]);
    (p95, json)
}

fn main() {
    let smoke = std::env::var("HEMS_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let requests = request_set(smoke);
    let warm_rounds = if smoke { 1 } else { 8 };
    let mut handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    println!(
        "[serve bench] {} distinct requests against {addr}{}",
        requests.len(),
        if smoke { " (smoke mode)" } else { "" }
    );

    // --- 1. Cold pass: all distinct, all misses. ---
    let (cold, cold_hits) = run_pass(addr, &requests);
    assert_eq!(cold_hits, 0, "cold pass must not hit the cache");
    let (cold_p95, cold_json) = pass_json(&cold);

    // --- 2. Warm passes: identical requests, all hits. ---
    let mut warm = Vec::new();
    for _ in 0..warm_rounds {
        let (mut pass, hits) = run_pass(addr, &requests);
        assert_eq!(hits, requests.len(), "warm pass must hit on every request");
        warm.append(&mut pass);
    }
    warm.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (warm_p95, warm_json) = pass_json(&warm);
    println!(
        "[serve bench] cold p95 {:.0} µs, warm p95 {:.2} µs ({:.0}x)",
        cold_p95 / 1e3,
        warm_p95 / 1e3,
        cold_p95 / warm_p95.max(1.0)
    );
    if !smoke {
        assert!(
            warm_p95 < cold_p95,
            "cache regression: warm p95 ({warm_p95} ns) not below cold p95 ({cold_p95} ns)"
        );
    }

    // --- 3. Concurrent warm throughput: 4 clients replay the set. ---
    let clients = 4usize;
    let started = monotonic_ns();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let requests = requests.clone();
            std::thread::spawn(move || run_pass(addr, &requests))
        })
        .collect();
    let mut concurrent_requests = 0usize;
    for t in threads {
        let (pass, _) = t.join().expect("client thread");
        concurrent_requests += pass.len();
    }
    let concurrent_secs = monotonic_ns().saturating_sub(started) as f64 / 1e9;
    let concurrent_rps = concurrent_requests as f64 / concurrent_secs;
    println!(
        "[serve bench] {clients} clients: {concurrent_requests} warm requests \
         in {concurrent_secs:.3} s = {concurrent_rps:.0}/s"
    );

    // --- Service counters for the report. ---
    let stats = handle.stats_snapshot();
    let counter = |name: &str| Value::Num(stats.get(name).and_then(Value::as_f64).unwrap_or(0.0));
    handle.shutdown();

    let report = Value::obj(vec![
        ("schema", Value::str("hems-bench-serve/1")),
        ("smoke", Value::Bool(smoke)),
        ("distinct_requests", Value::Num(requests.len() as f64)),
        ("warm_rounds", Value::Num(warm_rounds as f64)),
        ("cold", cold_json),
        ("warm", warm_json),
        ("warm_speedup_p95", Value::Num(cold_p95 / warm_p95.max(1.0))),
        (
            "concurrent",
            Value::obj(vec![
                ("clients", Value::Num(clients as f64)),
                ("requests", Value::Num(concurrent_requests as f64)),
                ("elapsed_s", Value::Num(concurrent_secs)),
                ("throughput_per_sec", Value::Num(concurrent_rps)),
            ]),
        ),
        (
            "server",
            Value::obj(vec![
                ("requests", counter("requests")),
                ("hits", counter("hits")),
                ("misses", counter("misses")),
                ("batches", counter("batches")),
                ("batched_jobs", counter("batched_jobs")),
                ("max_batch", counter("max_batch")),
                ("workers", counter("workers")),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, report.render_pretty() + "\n").expect("write BENCH_serve.json");

    // Self-validation: the file on disk must be well-formed JSON with the
    // headline fields present (the verify script relies on this).
    let written = std::fs::read_to_string(path).expect("re-read BENCH_serve.json");
    let parsed = parse(&written).expect("BENCH_serve.json is valid JSON");
    for field in ["schema", "cold", "warm", "concurrent", "server"] {
        assert!(parsed.get(field).is_some(), "report is missing '{field}'");
    }
    println!("[serve bench] wrote {path}");
}
