//! The `hems-conformance` bin: golden-fixture gate + differential fuzz.
//!
//! ```text
//! hems-conformance --check  [--goldens DIR]
//! hems-conformance --bless  [--goldens DIR]
//! hems-conformance --fuzz   [--seed N] [--cases N] [--oracle NAME]
//!                           [--budget-ms N] [--out PATH]
//! hems-conformance --self-test [--seed N]
//! hems-conformance --replay LINE
//! hems-conformance --corpus [--corpus-dir DIR]
//! hems-conformance --describe SEED
//! ```
//!
//! `--check` diffs the recomputed fixtures against the committed
//! goldens bit-for-bit; `--bless` re-captures them after an intentional
//! change. `--fuzz` runs every oracle over seeded cases, shrinks any
//! divergence, and prints a one-line repro; throughput and the run's
//! provenance (`host.nproc`, git `rev`) land in `--out` (default
//! `BENCH_conformance.json`). Exit code 0 = clean,
//! 1 = divergence/mismatch, 2 = usage error. The only clock is
//! `hems_obs::clock::monotonic_ns`, used for throughput and the time
//! budget, never for test semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use hems_conformance::shrink::{self, Repro};
use hems_conformance::{case, corpus, fixtures, oracles};
use hems_conformance::{CaseInput, ConformanceError, OracleCtx, OracleKind};
use hems_obs::clock::monotonic_ns;
use hems_obs::json::Value;

enum Mode {
    Check,
    Bless,
    Fuzz,
    SelfTest,
    Replay(String),
    Corpus,
    Describe(u64),
}

struct Args {
    mode: Mode,
    goldens: PathBuf,
    corpus_dir: PathBuf,
    seed: u64,
    cases: usize,
    oracle: Option<OracleKind>,
    budget_ms: Option<u64>,
    out: String,
}

const USAGE: &str = "usage: hems-conformance (--check | --bless | --fuzz | --self-test | \
--replay LINE | --corpus | --describe SEED) [--goldens DIR] [--corpus-dir DIR] [--seed N] \
[--cases N] [--oracle NAME] [--budget-ms N] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let mut args = Args {
        mode: Mode::Check,
        goldens: fixtures::default_dir(),
        corpus_dir: corpus::default_dir(),
        seed: 7,
        cases: 500,
        oracle: None,
        budget_ms: None,
        out: "BENCH_conformance.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => mode = Some(Mode::Check),
            "--bless" => mode = Some(Mode::Bless),
            "--fuzz" => mode = Some(Mode::Fuzz),
            "--self-test" => mode = Some(Mode::SelfTest),
            "--replay" => {
                let line = it.next().ok_or("--replay needs a repro line")?;
                mode = Some(Mode::Replay(line));
            }
            "--corpus" => mode = Some(Mode::Corpus),
            "--describe" => {
                let value = it.next().ok_or("--describe needs a seed")?;
                let seed = parse_seed(&value)?;
                mode = Some(Mode::Describe(seed));
            }
            "--goldens" => args.goldens = PathBuf::from(it.next().ok_or("--goldens needs a dir")?),
            "--corpus-dir" => {
                args.corpus_dir = PathBuf::from(it.next().ok_or("--corpus-dir needs a dir")?)
            }
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                args.seed = parse_seed(&value)?;
            }
            "--cases" => {
                let value = it.next().ok_or("--cases needs a value")?;
                args.cases = value.parse().map_err(|e| format!("--cases {value}: {e}"))?;
            }
            "--oracle" => {
                let value = it.next().ok_or("--oracle needs a name")?;
                args.oracle =
                    Some(OracleKind::from_name(&value).ok_or(format!("unknown oracle '{value}'"))?);
            }
            "--budget-ms" => {
                let value = it.next().ok_or("--budget-ms needs a value")?;
                args.budget_ms = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--budget-ms {value}: {e}"))?,
                );
            }
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    args.mode = mode.ok_or(USAGE.to_string())?;
    Ok(args)
}

fn parse_seed(value: &str) -> Result<u64, String> {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("seed {value}: {e}"))
    } else {
        value.parse().map_err(|e| format!("seed {value}: {e}"))
    }
}

struct OracleStats {
    name: &'static str,
    cases: usize,
    divergences: usize,
    wall_ms: f64,
}

fn run_check(args: &Args) -> Result<u64, ConformanceError> {
    let (count, reports) = fixtures::check_dir(&args.goldens)?;
    for report in &reports {
        eprint!("{report}");
    }
    eprintln!(
        "conformance: {count} fixtures checked against {}, {} mismatch(es)",
        args.goldens.display(),
        reports.len()
    );
    Ok(reports.len() as u64)
}

fn run_bless(args: &Args) -> Result<u64, ConformanceError> {
    let count = fixtures::bless_dir(&args.goldens)?;
    eprintln!(
        "conformance: blessed {count} fixtures into {}",
        args.goldens.display()
    );
    Ok(0)
}

fn run_fuzz(args: &Args) -> Result<u64, ConformanceError> {
    let oracle_list: Vec<OracleKind> = match args.oracle {
        Some(kind) => vec![kind],
        None => oracles::OracleKind::all().to_vec(),
    };
    let mut ctx = OracleCtx::new();
    let mut stats = Vec::new();
    let mut total_divergences = 0u64;
    let started = monotonic_ns();
    let deadline = args
        .budget_ms
        .map(|ms| started.saturating_add(ms.saturating_mul(1_000_000)));
    'oracles: for kind in oracle_list {
        let mut stat = OracleStats {
            name: kind.name(),
            cases: 0,
            divergences: 0,
            wall_ms: 0.0,
        };
        let oracle_started = monotonic_ns();
        for case_seed in oracles::case_seeds(args.seed, kind).take(args.cases) {
            if let Some(deadline) = deadline {
                if monotonic_ns() >= deadline {
                    eprintln!(
                        "conformance: budget exhausted after {} {} case(s)",
                        stat.cases, stat.name
                    );
                    stat.wall_ms = (monotonic_ns() - oracle_started) as f64 / 1e6;
                    stats.push(stat);
                    break 'oracles;
                }
            }
            let input = CaseInput::generate(case_seed);
            if let Some(divergence) = oracles::run(kind, &input, &mut ctx)? {
                stat.divergences += 1;
                total_divergences += 1;
                eprintln!("conformance: DIVERGENCE in {kind}: {}", divergence.detail);
                match shrink::shrink(kind, case_seed, &mut ctx) {
                    Ok(shrunk) => {
                        eprintln!("conformance: shrunk to: {}", shrunk.divergence.detail);
                        eprintln!(
                            "conformance: replay with: --replay {}",
                            shrunk.repro.render()
                        );
                    }
                    Err(e) => {
                        eprintln!("conformance: shrink failed ({e}); raw seed 0x{case_seed:016x}")
                    }
                }
            }
            stat.cases += 1;
        }
        stat.wall_ms = (monotonic_ns() - oracle_started) as f64 / 1e6;
        eprintln!(
            "conformance: oracle {} ran {} case(s) in {:.0} ms ({:.0} cases/sec), {} divergence(s)",
            stat.name,
            stat.cases,
            stat.wall_ms,
            rate(stat.cases, stat.wall_ms),
            stat.divergences
        );
        stats.push(stat);
    }
    let total_wall_ms = (monotonic_ns() - started) as f64 / 1e6;
    write_bench(args, &stats, total_wall_ms)?;
    Ok(total_divergences)
}

fn rate(cases: usize, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        cases as f64 / (wall_ms / 1e3)
    } else {
        0.0
    }
}

fn write_bench(
    args: &Args,
    stats: &[OracleStats],
    total_wall_ms: f64,
) -> Result<(), ConformanceError> {
    let fixture_count = std::fs::read_dir(&args.goldens)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|ext| ext == "ndjson"))
                .count()
        })
        .unwrap_or(0);
    let oracle_values: Vec<Value> = stats
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("name", Value::str(s.name)),
                ("cases", Value::Num(s.cases as f64)),
                ("divergences", Value::Num(s.divergences as f64)),
                ("wall_ms", Value::Num(s.wall_ms)),
                ("cases_per_sec", Value::Num(rate(s.cases, s.wall_ms))),
            ])
        })
        .collect();
    let bench = Value::obj(vec![
        ("seed", Value::Num(args.seed as f64)),
        (
            "host",
            Value::obj(vec![("nproc", Value::Num(hems_obs::nproc() as f64))]),
        ),
        ("rev", Value::str(hems_obs::revision())),
        ("cases_requested", Value::Num(args.cases as f64)),
        ("fixtures", Value::Num(fixture_count as f64)),
        ("total_wall_ms", Value::Num(total_wall_ms)),
        ("oracles", Value::Arr(oracle_values)),
    ]);
    std::fs::write(&args.out, format!("{}\n", bench.render()))
        .map_err(|e| ConformanceError::new("write bench", format!("{}: {e}", args.out)))?;
    eprintln!("conformance: wrote {}", args.out);
    Ok(())
}

fn run_self_test(args: &Args) -> Result<u64, ConformanceError> {
    let mut ctx = OracleCtx::new();
    let shrunk = shrink::self_test(args.seed, &mut ctx)?;
    eprintln!(
        "conformance: shrinker self-test passed — planted divergence reduced to 1 spec \
(irradiance {:.4}); replay with: --replay {}",
        shrunk
            .input
            .specs
            .first()
            .map(|s| s.irradiance)
            .unwrap_or(f64::NAN),
        shrunk.repro.render()
    );
    Ok(0)
}

fn run_replay(line: &str) -> Result<u64, ConformanceError> {
    let repro = Repro::parse(line)?;
    let input = repro.input()?;
    eprintln!("conformance: replaying {} on:\n{input:#?}", repro.render());
    let mut ctx = OracleCtx::new();
    match oracles::run(repro.oracle, &input, &mut ctx)? {
        Some(divergence) => {
            eprintln!("conformance: still diverges: {}", divergence.detail);
            Ok(1)
        }
        None => {
            eprintln!("conformance: no divergence (fixed, or stale repro)");
            Ok(0)
        }
    }
}

fn run_corpus(args: &Args) -> Result<u64, ConformanceError> {
    let entries = corpus::load_dir(&args.corpus_dir)?;
    let mut ctx = OracleCtx::new();
    let mut divergences = 0u64;
    let mut replays = 0usize;
    for entry in &entries {
        let input = CaseInput::generate(entry.seed);
        let oracle_list: Vec<OracleKind> = match entry.oracle {
            Some(kind) => vec![kind],
            None => OracleKind::all().to_vec(),
        };
        for kind in oracle_list {
            replays += 1;
            if let Some(divergence) = oracles::run(kind, &input, &mut ctx)? {
                divergences += 1;
                eprintln!(
                    "conformance: corpus entry '{}' diverges on {kind}: {}",
                    entry.raw, divergence.detail
                );
            }
        }
    }
    eprintln!(
        "conformance: corpus {} entr(ies), {replays} oracle replay(s), {divergences} divergence(s)",
        entries.len()
    );
    Ok(divergences)
}

fn run_describe(seed: u64) -> Result<u64, ConformanceError> {
    let input = CaseInput::generate(seed);
    let intact = input
        .frames
        .iter()
        .filter(|f| hems_obs::json::parse(f).is_ok())
        .count();
    let boundary_outages = input
        .outages
        .iter()
        .filter(|(s, e)| *s < 0.5 || *e > input.duration_ms * 0.9)
        .count();
    eprintln!(
        "seed 0x{seed:016x}: {} spec(s) (dark: {}), irradiances {:?}, grid {}, \
duration {:.2} ms, {} outage(s) ({} near a boundary), {} frame(s) ({} parseable), \
{} script step(s), policy {}",
        input.specs.len(),
        input.has_dark_spec(),
        input
            .specs
            .iter()
            .map(|s| (s.irradiance * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        input.grid_n,
        input.duration_ms,
        input.outages.len(),
        boundary_outages,
        input.frames.len(),
        intact,
        input.script.len(),
        input.policy_index
    );
    eprintln!("{input:#?}");
    let _ = case::DARK_BAND; // anchor for rustdoc links
    Ok(0)
}

fn run(args: &Args) -> Result<u64, ConformanceError> {
    match &args.mode {
        Mode::Check => run_check(args),
        Mode::Bless => run_bless(args),
        Mode::Fuzz => run_fuzz(args),
        Mode::SelfTest => run_self_test(args),
        Mode::Replay(line) => run_replay(line),
        Mode::Corpus => run_corpus(args),
        Mode::Describe(seed) => run_describe(*seed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("conformance: {failures} failure(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("conformance: {e}");
            ExitCode::FAILURE
        }
    }
}
