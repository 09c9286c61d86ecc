//! Layered benchmark of the plan-serving tier (`hems-serve`,
//! `hems-router`) and the fleet twin (`hems-fleet`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_hits --seed 1 --seconds 15 --trace 0 [--smoke]
//! ```
//!
//! Workloads: `plan_hits`, `plan_routed`, `plan_misses`, `connect_churn`,
//! `fleet_day` (see `BENCHMARK.json` for why each exists, and
//! `perfbench/interaction_map.json` for which layer metric should move
//! which end-to-end metric on which workload).
//!
//! The last stdout line is the result object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Lines before it carry provenance, ledgers and
//! failure reasons. Each run also writes its lines to
//! `perfbench/out/<mode>[-traced]/<workload>.json`, so a smoke or traced
//! run never replaces a full run's numbers. A failed correctness check
//! exits 1, bad arguments exit 2.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` runs the
//! self-tests: the printed metric names match `BENCHMARK.json` on tiny
//! runs of every workload, and a relay that alters one answer byte fails
//! the answer check.

mod fleet;
mod gen;
mod layers;
mod net;
mod report;
mod serving;
mod stats;

use report::Outcome;
use std::process::ExitCode;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for self-tests and quick checks.
    pub smoke: bool,
}

impl RunConfig {
    /// A count scaled down for smoke runs.
    pub fn scale(&self, n: usize) -> usize {
        if self.smoke {
            (n / 8).max(1)
        } else {
            n
        }
    }

    /// Offered-load multiplier: smoke runs offer a tenth.
    pub fn rate_scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }

    fn mode(&self) -> &'static str {
        match (self.smoke, self.trace) {
            (false, false) => "full",
            (false, true) => "full-traced",
            (true, false) => "smoke",
            (true, true) => "smoke-traced",
        }
    }
}

pub const WORKLOADS: [&str; 5] = [
    "plan_hits",
    "plan_routed",
    "plan_misses",
    "connect_churn",
    "fleet_day",
];

pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "plan_hits" => serving::plan_hits(cfg),
        "plan_routed" => serving::plan_routed(cfg),
        "plan_misses" => serving::plan_misses(cfg),
        "connect_churn" => serving::connect_churn(cfg),
        "fleet_day" => fleet::fleet_day(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => cfg.trace = value()? != "0",
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok((workload, cfg))
}

/// The checked-out revision, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(workload: &str, cfg: &RunConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"mode\":\"{}\",\"host.nproc\":{nproc},\"rev\":\"{}\"}}}}",
        cfg.seed,
        cfg.seconds,
        cfg.mode(),
        revision()
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = vec![provenance(&workload, &cfg)];
    let outcome = run(&workload, &cfg).unwrap_or_else(|e| {
        let mut failed = Outcome::default();
        failed.reject(e);
        failed
    });
    lines.extend(outcome.notes.iter().cloned());
    let complete = outcome.is_complete(cfg.trace);
    if complete {
        lines.push(outcome.result_line(cfg.trace));
    }
    let dir = format!("{}/out/{}", env!("CARGO_MANIFEST_DIR"), cfg.mode());
    let record = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(format!("{dir}/{workload}.json"), lines.join("\n") + "\n"));
    if let Err(e) = record {
        eprintln!("perfbench: could not record the run in {dir}: {e}");
    }
    for line in &lines {
        println!("{line}");
    }
    if !(complete && outcome.correct) {
        eprintln!("perfbench: {workload} failed its correctness checks");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Serializes the tests that time servers, so they do not contend.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use hems_serve::json::{parse, Value};

    fn read_json(name: &str) -> Value {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        parse(&std::fs::read_to_string(&path).expect("readable")).expect("valid JSON")
    }

    fn names(list: &Value, key: &str) -> Vec<(String, String)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field(key), field("unit"))
            })
            .collect()
    }

    fn declared(trace: bool) -> Vec<(String, String)> {
        let bench = read_json("../BENCHMARK.json");
        names(
            bench
                .get(if trace { "per_layer" } else { "end_to_end" })
                .unwrap(),
            "name",
        )
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(false), table(&report::END_TO_END));
        assert_eq!(declared(true), table(&report::PER_LAYER));
        let bench = read_json("../BENCHMARK.json");
        let workloads: Vec<String> = names(bench.get("workloads").unwrap(), "name")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let map = read_json("interaction_map.json");
        assert_eq!(names(map.get("layers").unwrap(), "metric"), declared(true));
    }

    #[test]
    fn smoke_runs_print_exactly_the_declared_metrics() {
        let _serial = TEST_LOCK.lock();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let outcome = run(workload, &cfg).expect("smoke run");
                assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
                let line = parse(&outcome.result_line(trace)).expect("result line is JSON");
                let Some(Value::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                let printed: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(n, m)| {
                        (
                            n.clone(),
                            m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                        )
                    })
                    .collect();
                assert_eq!(printed, declared(trace), "{workload} trace={trace}");
                if !trace {
                    assert!(metrics.iter().all(|(_, m)| m
                        .get("value")
                        .and_then(Value::as_f64)
                        .unwrap()
                        > 0.0));
                }
            }
        }
    }
}
