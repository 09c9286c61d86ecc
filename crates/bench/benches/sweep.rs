//! The scenario-sweep benchmark: serial vs batch engine throughput,
//! batch-kernel microbenches, and LUT vs exact solver speed, written to
//! `BENCH_sweep.json` at the repo root, or under `target/bench-smoke/`
//! in smoke mode (plus the usual stdout report).
//!
//! Four comparisons, matching the performance claims this repo makes:
//!
//! 1. **Sweep engine** — the same scenario grid through the exact
//!    reference `run_scenarios_serial` and the SoA batch engine
//!    `run_scenarios_batch` (shared device tables, 8-lane lockstep
//!    chunks). Both run on the calling thread; the JSON records both
//!    medians plus the batch speedup (serial over batch).
//! 2. **Scaling** — the engine pair at 8, 32, and 128 scenarios, so the
//!    batch engine's scaling behaviour (`batch ≥ serial` at every count)
//!    is on record.
//! 3. **Batch kernels** — one slab through `PvLut::power_at_many` /
//!    `CpuLut::total_power_many` vs the same slab through a scalar
//!    `power_at` / `total_power` loop: the gather-free sorted-cursor
//!    interpolation vs per-element binary search.
//! 4. **Solvers** — the full Fig. 6/7 analysis per light level on the
//!    exact device models vs the `PvLut`/`CpuLut` fast path (warm tables,
//!    cold rebuild variant, build cost, worst relative deviation).
//!
//! Smoke mode (`HEMS_BENCH_SMOKE=1`): one iteration of the solver and
//! kernel benches, but a short multi-sample run for the engine series —
//! `scripts/verify.sh` asserts on the engine speedups, and a single
//! unwarmed sample is too noisy to compare.
//!
//! Engine methodology: the serial/batch pair at each scenario count is
//! sampled *interleaved* (round-robin per sample) rather than
//! bench-after-bench. Sequential sampling bakes clock/thermal drift into
//! whichever entry runs later; interleaving lands drift on both paths
//! equally, and the speedup is a paired estimator (median of per-round
//! ratios). Speedup fields are rounded to two decimals — the resolution
//! speedup claims are made at; the raw measurements keep full precision.

use hems_bench::harness::{measurement_json, Harness, Measurement};
use hems_core::{frontier, mep, operating_point, optimal_voltage, CpuEvalBatch, PvSourceBatch};
use hems_cpu::{CpuLut, Microprocessor};
use hems_obs::clock::monotonic_ns;
use hems_obs::json::Value;
use hems_obs::{fmt_ns, peak_rss_bytes, percentile};
use hems_pv::{Irradiance, PvLut, SolarCell};
use hems_regulator::{BuckRegulator, Ldo, Regulator, ScRegulator};
use hems_sim::sweep::{self, SweepGrid};
use hems_units::{Farads, Hertz, Seconds, Volts};
use std::hint::black_box;

/// A grid of `lights x caps x 2 regulators x 2 policies` scenarios of
/// 40 simulated ms each — the scaling series runs (2,1) → 8, (4,2) → 32
/// (the headline), and (8,4) → 128 scenarios through the same base
/// configuration.
fn grid_with(lights: usize, caps: usize) -> SweepGrid {
    let mut grid = SweepGrid::paper_baseline().expect("baseline grid");
    let levels = [1.0, 0.5, 0.25, 0.1, 0.75, 0.35, 0.2, 0.15];
    grid.irradiances = levels
        .iter()
        .take(lights)
        .map(|&g| Irradiance::new(g).expect("in range"))
        .collect();
    let c0 = grid.base.capacitor.capacitance();
    let scales = [1.0, 4.0, 2.0, 8.0];
    grid.capacitances = scales
        .iter()
        .take(caps)
        .map(|&s| Farads::new(c0.farads() * s))
        .collect();
    grid.duration = Seconds::from_milli(40.0);
    grid
}

fn light_levels() -> Vec<Irradiance> {
    [1.0, 0.75, 0.5, 0.25, 0.1]
        .into_iter()
        .map(|g| Irradiance::new(g).expect("in range"))
        .collect()
}

/// The per-light-level Fig. 6/7 workload, generic over the model path:
/// the unregulated intersection (Fig. 6a), the regulated optimum for all
/// three topologies (Fig. 6b), the joint rail/supply optimization, the
/// sustainable frontier, and the system-MEP search (Fig. 7b). Returns an
/// accumulator so nothing is optimized away.
fn figure_workload(
    cell: &impl PvSourceBatch,
    cpu: &impl CpuEvalBatch,
    regs: &[&dyn Regulator],
) -> f64 {
    let mut acc = 0.0;
    if let Ok(u) = operating_point::unregulated_point(cell, cpu) {
        acc += u.power.watts();
    }
    for reg in regs {
        if let Ok(plan) = optimal_voltage::optimal_regulated_plan(cell, *reg, cpu) {
            acc += plan.p_cpu.watts();
        }
    }
    if let Some(first) = regs.first() {
        if let Ok(plan) = optimal_voltage::optimal_joint_plan(cell, *first, cpu) {
            acc += plan.p_cpu.watts();
        }
        if let Ok(points) = frontier::sustainable_frontier(cell, *first, cpu, 33) {
            acc += points.len() as f64;
        }
        if let Ok(m) = mep::system_mep(cpu, *first, Volts::new(1.1)) {
            acc += m.energy_per_cycle.joules();
        }
    }
    acc
}

/// The figure sweep on the exact models: every solver call re-solves the
/// implicit PV curve (MPP searches, intersection bisections) from scratch.
fn solver_sweep_exact(cpu: &Microprocessor, regs: &[&dyn Regulator]) -> f64 {
    light_levels()
        .into_iter()
        .map(|g| figure_workload(&SolarCell::kxob22(g), cpu, regs))
        .sum()
}

/// The same sweep on warm tables — prebuilt `PvLut`s (one per light
/// level, the cache's steady state) and a prebuilt `CpuLut`
/// (light-independent).
fn solver_sweep_lut(pv_luts: &[PvLut], cpu_lut: &CpuLut, regs: &[&dyn Regulator]) -> f64 {
    pv_luts
        .iter()
        .map(|pv_lut| figure_workload(pv_lut, cpu_lut, regs))
        .sum()
}

/// The cold variant: every pass pays the per-light-level `PvLut` build
/// before the workload — the worst case where the cache is rebuilt for
/// every figure instead of once per irradiance change.
fn solver_sweep_lut_cold(cpu_lut: &CpuLut, regs: &[&dyn Regulator]) -> f64 {
    light_levels()
        .into_iter()
        .filter_map(|g| PvLut::build_default(SolarCell::kxob22(g)).ok())
        .map(|pv_lut| figure_workload(&pv_lut, cpu_lut, regs))
        .sum()
}

/// Worst relative deviation between the two paths across the sweep's
/// headline outputs (plan power and MEP energy per light level).
fn solver_deviation(cpu: &Microprocessor, cpu_lut: &CpuLut, sc: &ScRegulator) -> f64 {
    let mut worst: f64 = 0.0;
    let mut dev = |fast: f64, exact: f64| {
        worst = worst.max((fast - exact).abs() / exact.abs().max(1e-12));
    };
    for g in light_levels() {
        let cell = SolarCell::kxob22(g);
        let pv_lut = PvLut::build_default(cell.clone()).expect("lit cell builds");
        if let (Ok(e), Ok(f)) = (
            optimal_voltage::optimal_joint_plan(&cell, sc, cpu),
            optimal_voltage::optimal_joint_plan(&pv_lut, sc, cpu_lut),
        ) {
            dev(f.p_cpu.watts(), e.p_cpu.watts());
        }
    }
    if let (Ok(e), Ok(f)) = (
        mep::system_mep(cpu, sc, Volts::new(1.1)),
        mep::system_mep(cpu_lut, sc, Volts::new(1.1)),
    ) {
        dev(f.energy_per_cycle.joules(), e.energy_per_cycle.joules());
    }
    worst
}

/// Rounds a speedup ratio to the two decimals it is claimed at.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Interleaved paired sampling: one warmup round, then `samples` rounds
/// of every case back-to-back, so slow drift (thermal, clock migration)
/// is shared by all cases instead of penalising whichever one a
/// sequential harness happens to run last. The starting case *rotates*
/// each round — with a fixed order, ramp-shaped drift inside a round
/// systematically favours whichever case always runs first. Runs are
/// milliseconds-scale, so one call per sample is already far above timer
/// overhead.
fn bench_interleaved(
    samples: usize,
    cases: &mut [(String, &mut dyn FnMut())],
) -> Vec<(Measurement, Vec<f64>)> {
    let k = cases.len().max(1);
    let mut per_case: Vec<Vec<f64>> = cases.iter().map(|_| Vec::with_capacity(samples)).collect();
    for (_, f) in cases.iter_mut() {
        f();
    }
    for round in 0..samples.max(1) {
        for slot in 0..k {
            let idx = (round + slot) % k;
            let Some(((_, f), times)) = cases.get_mut(idx).zip(per_case.get_mut(idx)) else {
                continue;
            };
            let t = monotonic_ns();
            f();
            times.push(monotonic_ns().saturating_sub(t) as f64);
        }
    }
    cases
        .iter()
        .zip(per_case)
        .map(|((name, _), raw)| {
            let mut times = raw.clone();
            times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            let first = times.first().copied().unwrap_or(0.0);
            let m = Measurement {
                name: name.clone(),
                samples: times.len(),
                batch: 1,
                median_ns: percentile(&times, 50.0),
                p95_ns: percentile(&times, 95.0),
                min_ns: first,
                mean_ns: times.iter().sum::<f64>() / times.len() as f64,
            };
            println!(
                "[bench] {:<44} median {:>10}  p95 {:>10}  {:>12.0}/s  ({} samples interleaved)",
                m.name,
                fmt_ns(m.median_ns),
                fmt_ns(m.p95_ns),
                m.throughput_per_sec(),
                m.samples,
            );
            (m, raw)
        })
        .collect()
}

/// Median of per-round time ratios `a[i] / b[i]` — the paired estimator.
/// Each ratio compares two samples taken back-to-back inside one round,
/// so drift slower than a round cancels exactly; the median then rejects
/// rounds where a scheduler spike hit one side of the pair.
fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|&(_, &d)| d > 0.0)
        .map(|(&n, &d)| n / d)
        .collect();
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("timings are finite"));
    if ratios.is_empty() {
        1.0
    } else {
        percentile(&ratios, 50.0)
    }
}

/// One engine scaling point: the serial/batch pair at one scenario count
/// (summary statistics plus round-ordered raw samples), with the speedup
/// derived via the paired estimator.
struct ScalePoint {
    scenarios: usize,
    serial: Measurement,
    batch: Measurement,
    serial_raw: Vec<f64>,
    batch_raw: Vec<f64>,
}

impl ScalePoint {
    /// Serial-vs-batch, paired per round.
    fn batch_speedup(&self) -> f64 {
        round2(paired_ratio(&self.serial_raw, &self.batch_raw))
    }

    fn json(&self) -> Value {
        Value::obj(vec![
            ("scenarios", Value::Num(self.scenarios as f64)),
            ("serial", measurement_json(&self.serial)),
            ("batch", measurement_json(&self.batch)),
            ("batch_speedup", Value::Num(self.batch_speedup())),
        ])
    }
}

fn main() {
    let mut c = Harness::from_env();
    // The engine series keeps a short multi-sample run even in smoke mode:
    // verify.sh asserts on its speedups, and one unwarmed sample is
    // scheduler noise.
    let engine_samples = if c.is_smoke() { 9 } else { 15 };
    if c.is_smoke() {
        println!("[sweep bench] smoke mode");
    }

    // --- 1+2. Sweep engine: serial vs batch, at 8/32/128. ---
    // Each grid expands exactly once (`ExpandedGrid`); the timed region is
    // pure engine work on a borrowed scenario list.
    let mut scaling: Vec<ScalePoint> = Vec::new();
    for (lights, caps) in [(2, 1), (4, 2), (8, 4)] {
        let expanded = grid_with(lights, caps).expanded().expect("grid expands");
        let scenarios = expanded.scenarios();
        let n = scenarios.len();
        let mut serial_fn = || {
            black_box(sweep::run_scenarios_serial(scenarios));
        };
        let mut batch_fn = || {
            black_box(sweep::run_scenarios_batch(scenarios));
        };
        let mut pair = bench_interleaved(
            engine_samples,
            &mut [
                (format!("sweep/engine_serial_{n}"), &mut serial_fn),
                (format!("sweep/engine_batch_{n}"), &mut batch_fn),
            ],
        )
        .into_iter();
        let (Some(serial), Some(batch)) = (pair.next(), pair.next()) else {
            unreachable!("two cases in, two measurements out");
        };
        scaling.push(ScalePoint {
            scenarios: n,
            serial: serial.0,
            batch: batch.0,
            serial_raw: serial.1,
            batch_raw: batch.1,
        });
    }
    let headline = scaling
        .iter()
        .find(|p| p.scenarios == 32)
        .expect("the 32-scenario grid is in the scaling series");
    println!(
        "[sweep bench] engine batch {:.2}x serial ({} scenarios)",
        headline.batch_speedup(),
        headline.scenarios,
    );

    // --- 3. Batch kernels: one slab vs the same slab element-wise. ---
    // 512 lanes ≈ 64 sweep chunks' worth of gathers; the slab is ascending
    // so `power_at_many` runs its sorted-cursor fast path, exactly like
    // the engine's gathered voltage slabs (monotone charge trajectories).
    const SLAB: usize = 512;
    let half_sun =
        PvLut::build_default(SolarCell::kxob22(Irradiance::HALF_SUN)).expect("lit cell builds");
    let voc = half_sun.open_circuit_voltage().volts();
    let volts_slab: Vec<f64> = (0..SLAB)
        .map(|i| voc * i as f64 / (SLAB - 1) as f64)
        .collect();
    let mut watts_slab = vec![0.0_f64; SLAB];
    let pv_scalar = c
        .bench_function("kernels/pv_lut_scalar", || {
            volts_slab
                .iter()
                .map(|&v| half_sun.power_at(Volts::new(v)).watts())
                .sum::<f64>()
        })
        .clone();
    let pv_batch = c
        .bench_function("kernels/pv_lut_batch", || {
            half_sun.power_at_many(&volts_slab, &mut watts_slab);
            watts_slab.iter().sum::<f64>()
        })
        .clone();
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());
    let vdd_slab: Vec<f64> = (0..SLAB)
        .map(|i| 0.45 + (1.05 - 0.45) * i as f64 / (SLAB - 1) as f64)
        .collect();
    let mut freq_slab = vec![0.0_f64; SLAB];
    cpu_lut.max_frequency_many(&vdd_slab, &mut freq_slab);
    let mut power_slab = vec![0.0_f64; SLAB];
    let cpu_scalar = c
        .bench_function("kernels/cpu_lut_scalar", || {
            vdd_slab
                .iter()
                .zip(&freq_slab)
                .map(|(&v, &f)| cpu_lut.total_power(Volts::new(v), Hertz::new(f)).watts())
                .sum::<f64>()
        })
        .clone();
    let cpu_batch = c
        .bench_function("kernels/cpu_lut_batch", || {
            cpu_lut.total_power_many(&vdd_slab, &freq_slab, &mut power_slab);
            power_slab.iter().sum::<f64>()
        })
        .clone();
    let pv_kernel_ratio = pv_scalar.median_ns / pv_batch.median_ns;
    let cpu_kernel_ratio = cpu_scalar.median_ns / cpu_batch.median_ns;
    println!(
        "[sweep bench] kernel slab ratios: pv {pv_kernel_ratio:.2}x, cpu {cpu_kernel_ratio:.2}x \
         ({SLAB} lanes)"
    );

    // --- 4. Solvers: exact vs LUT on Fig. 6/7-style sweeps. ---
    let sc = ScRegulator::paper_65nm();
    let buck = BuckRegulator::paper_65nm();
    let ldo = Ldo::paper_65nm();
    let regs: [&dyn Regulator; 3] = [&sc, &buck, &ldo];
    let pv_luts: Vec<PvLut> = light_levels()
        .into_iter()
        .map(|g| PvLut::build_default(SolarCell::kxob22(g)).expect("lit cell builds"))
        .collect();
    let exact = c
        .bench_function("solvers/fig67_sweep_exact", || {
            black_box(solver_sweep_exact(&cpu, &regs))
        })
        .clone();
    let lut = c
        .bench_function("solvers/fig67_sweep_lut", || {
            black_box(solver_sweep_lut(&pv_luts, &cpu_lut, &regs))
        })
        .clone();
    let lut_cold = c
        .bench_function("solvers/fig67_sweep_lut_cold", || {
            black_box(solver_sweep_lut_cold(&cpu_lut, &regs))
        })
        .clone();
    let build = c
        .bench_function("solvers/pv_lut_build", || {
            black_box(PvLut::build_default(SolarCell::kxob22(
                Irradiance::HALF_SUN,
            )))
        })
        .clone();
    let solver_speedup = exact.median_ns / lut.median_ns;
    let cold_speedup = exact.median_ns / lut_cold.median_ns;
    let deviation = solver_deviation(&cpu, &cpu_lut, &sc);
    println!(
        "[sweep bench] solver speedup {solver_speedup:.2}x warm / {cold_speedup:.2}x cold, \
         worst deviation {:.4}%",
        deviation * 100.0
    );

    // --- JSON report at the repo root. ---
    let report = Value::obj(vec![
        ("schema", Value::str("hems-bench-sweep/3")),
        ("smoke", Value::Bool(c.is_smoke())),
        ("scenario_count", Value::Num(headline.scenarios as f64)),
        (
            "engine",
            Value::obj(vec![
                ("serial", measurement_json(&headline.serial)),
                ("batch", measurement_json(&headline.batch)),
                ("batch_speedup", Value::Num(headline.batch_speedup())),
                ("batch_lanes", Value::Num(sweep::BATCH_LANES as f64)),
            ]),
        ),
        (
            "scaling",
            Value::Arr(scaling.iter().map(ScalePoint::json).collect()),
        ),
        (
            "kernels",
            Value::obj(vec![
                ("slab_len", Value::Num(SLAB as f64)),
                ("pv_lut_scalar", measurement_json(&pv_scalar)),
                ("pv_lut_batch", measurement_json(&pv_batch)),
                ("pv_ratio", Value::Num(pv_kernel_ratio)),
                ("cpu_lut_scalar", measurement_json(&cpu_scalar)),
                ("cpu_lut_batch", measurement_json(&cpu_batch)),
                ("cpu_ratio", Value::Num(cpu_kernel_ratio)),
            ]),
        ),
        (
            "solvers",
            Value::obj(vec![
                ("exact", measurement_json(&exact)),
                ("lut", measurement_json(&lut)),
                ("lut_cold", measurement_json(&lut_cold)),
                ("pv_lut_build", measurement_json(&build)),
                ("speedup", Value::Num(solver_speedup)),
                ("cold_speedup", Value::Num(cold_speedup)),
                ("worst_relative_deviation", Value::Num(deviation)),
            ]),
        ),
        (
            "peak_rss_bytes",
            peak_rss_bytes().map_or(Value::Null, |rss| Value::Num(rss as f64)),
        ),
        (
            "all_measurements",
            Value::Arr(
                scaling
                    .iter()
                    .flat_map(|p| [&p.serial, &p.batch])
                    .chain(c.results())
                    .map(measurement_json)
                    .collect(),
            ),
        ),
    ]);
    let path = c.report_path("BENCH_sweep.json");
    std::fs::write(&path, report.render_pretty() + "\n").expect("write BENCH_sweep.json");
    println!("[sweep bench] wrote {}", path.display());
}
