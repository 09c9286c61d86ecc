//! A self-contained wall-clock micro-benchmark harness.
//!
//! The figure benches previously rode on Criterion; that dependency cannot
//! resolve offline, so this module provides the small slice of it the repo
//! actually needs: warmup, repeated timed samples, median/p95/min/mean
//! statistics, and a throughput figure — ~150 lines, `std`-only.
//!
//! Methodology: each *sample* times a batch of `batch` calls, where
//! `batch` is auto-calibrated during warmup so one batch spans at least
//! ~1 ms (per-call timer overhead would otherwise dominate fast
//! functions like table lookups). Timestamps come from
//! `hems_obs::clock::monotonic_ns` — the workspace's single wall-clock
//! choke point (enforced by the `clock` lint rule), so the bench numbers
//! and the telemetry spans share one clock. Statistics are computed over per-call
//! times (`batch_elapsed / batch`); the median is the headline number —
//! robust to the occasional scheduler hiccup a p95 exists to expose.
//!
//! **Smoke mode** (`HEMS_BENCH_SMOKE=1`, or [`Harness::smoke`]): one
//! sample of one call, no warmup — CI checks that every bench *runs*
//! without paying for statistics. Smoke reports go under
//! `target/bench-smoke/` ([`Harness::report_path`]), so they never
//! overwrite the committed `BENCH_*.json` files.

use hems_obs::clock::monotonic_ns;
use hems_obs::json::Value;
use hems_obs::{fmt_ns, percentile};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Target minimum duration of one timed batch, in nanoseconds.
const MIN_BATCH_NS: f64 = 1e6;
/// Hard cap on batch growth during calibration.
const MAX_BATCH: usize = 1 << 22;

/// Statistics of one benchmarked function.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The benchmark's name (`group/case` by convention).
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Calls per sample.
    pub batch: usize,
    /// Median per-call time, nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-call time, nanoseconds.
    pub p95_ns: f64,
    /// Fastest per-call time, nanoseconds.
    pub min_ns: f64,
    /// Mean per-call time, nanoseconds.
    pub mean_ns: f64,
}

impl Measurement {
    /// Calls per second at the median time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            f64::INFINITY
        }
    }
}

/// The benchmark runner: collects [`Measurement`]s and prints one summary
/// line per bench as it completes.
#[derive(Debug)]
pub struct Harness {
    warmup_samples: usize,
    samples: usize,
    smoke: bool,
    results: Vec<Measurement>,
}

impl Harness {
    /// A harness with explicit warmup/sample counts.
    pub fn new(warmup_samples: usize, samples: usize) -> Harness {
        Harness {
            warmup_samples,
            samples: samples.max(1),
            smoke: false,
            results: Vec::new(),
        }
    }

    /// Smoke mode: one un-warmed sample of one call per bench.
    pub fn smoke() -> Harness {
        Harness {
            warmup_samples: 0,
            samples: 1,
            smoke: true,
            results: Vec::new(),
        }
    }

    /// The default harness — or smoke mode when `HEMS_BENCH_SMOKE=1` is
    /// set (the contract `scripts/verify.sh` relies on).
    pub fn from_env() -> Harness {
        if std::env::var("HEMS_BENCH_SMOKE").is_ok_and(|v| v == "1") {
            Harness::smoke()
        } else {
            Harness::new(3, 30)
        }
    }

    /// `true` when running in smoke mode.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Where a bench writes its report `name`: the committed file at the
    /// repo root for full runs, `target/bench-smoke/` (created on demand)
    /// for smoke runs.
    ///
    /// # Panics
    ///
    /// Panics if the smoke directory cannot be created.
    pub fn report_path(&self, name: &str) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if !self.smoke {
            return root.join(name);
        }
        let dir = root.join("target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create target/bench-smoke");
        dir.join(name)
    }

    /// Times `f`, records the measurement, prints a summary line, and
    /// returns a reference to the recorded stats.
    pub fn bench_function<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &Measurement {
        let mut batch = 1usize;
        if !self.smoke {
            // Calibrate the batch so one sample spans >= MIN_BATCH_NS.
            loop {
                let t = monotonic_ns();
                for _ in 0..batch {
                    black_box(f());
                }
                let ns = monotonic_ns().saturating_sub(t) as f64;
                if ns >= MIN_BATCH_NS || batch >= MAX_BATCH {
                    break;
                }
                // Aim past the threshold in one step, at least doubling.
                let scale = (MIN_BATCH_NS / ns.max(1.0)).ceil() as usize;
                batch = (batch * scale.max(2)).min(MAX_BATCH);
            }
            for _ in 0..self.warmup_samples {
                let t = monotonic_ns();
                for _ in 0..batch {
                    black_box(f());
                }
                black_box(monotonic_ns().saturating_sub(t));
            }
        }
        let mut per_call: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = monotonic_ns();
                for _ in 0..batch {
                    black_box(f());
                }
                monotonic_ns().saturating_sub(t) as f64 / batch as f64
            })
            .collect();
        per_call.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let measurement = Measurement {
            name: name.to_string(),
            samples: self.samples,
            batch,
            median_ns: percentile(&per_call, 50.0),
            p95_ns: percentile(&per_call, 95.0),
            min_ns: per_call[0],
            mean_ns: per_call.iter().sum::<f64>() / per_call.len() as f64,
        };
        println!(
            "[bench] {:<44} median {:>10}  p95 {:>10}  {:>12.0}/s  ({} samples x {} calls)",
            measurement.name,
            fmt_ns(measurement.median_ns),
            fmt_ns(measurement.p95_ns),
            measurement.throughput_per_sec(),
            measurement.samples,
            measurement.batch,
        );
        self.results.push(measurement);
        self.results.last().expect("just pushed")
    }

    /// All measurements recorded so far, in run order.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

/// A [`Measurement`] as a JSON object.
pub fn measurement_json(m: &Measurement) -> Value {
    Value::obj(vec![
        ("name", Value::Str(m.name.clone())),
        ("samples", Value::Num(m.samples as f64)),
        ("batch", Value::Num(m.batch as f64)),
        ("median_ns", Value::Num(m.median_ns)),
        ("p95_ns", Value::Num(m.p95_ns)),
        ("min_ns", Value::Num(m.min_ns)),
        ("mean_ns", Value::Num(m.mean_ns)),
        ("throughput_per_sec", Value::Num(m.throughput_per_sec())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_takes_exactly_one_sample() {
        let mut h = Harness::smoke();
        let mut calls = 0u32;
        h.bench_function("t/one", || calls += 1);
        assert_eq!(calls, 1);
        let m = &h.results()[0];
        assert_eq!((m.samples, m.batch), (1, 1));
        assert!(m.median_ns > 0.0);
    }

    #[test]
    fn statistics_are_ordered_and_batches_calibrate() {
        let mut h = Harness::new(1, 10);
        let m = h
            .bench_function("t/fast", || black_box(3u64).wrapping_mul(7))
            .clone();
        assert!(m.batch > 1, "ns-scale work must be batched");
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.p95_ns);
    }
}
