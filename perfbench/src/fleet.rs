//! The fleet workload: `Fleet::new`, `Fleet::run` with the in-process
//! planner, and `FleetReport::render_lines`, for one simulated day.

use crate::report::Outcome;
use crate::serving::ledger;
use crate::stats::{fnv1a, lowest, median, peak_rss_mb};
use crate::RunConfig;
use hems_fleet::{
    AnalyticPlans, Fleet, FleetConfig, FleetError, OperatingPoint, PlanSource, WeatherField,
};
use std::hint::black_box;
use std::time::Instant;

/// Fleet size: node stepping (~2.5 s) and the 16 sampled commit digests
/// (~4 s) both take seconds on a 2-core x86-64 host.
const NODES: u32 = 10_000;
/// `Fleet::new` calls per run; `setup_s` is the fastest.
const SETUPS: usize = 51;
/// Fewest campaigns per untraced run.
const MIN_CAMPAIGNS: usize = 2;

/// The weather a run simulates: `--seed` picks one of these campaign
/// seeds, each a sunny day with the same fleet-wide commit count to
/// within 2% (52.1e9 to 53.2e9), so every run does the same work. Each
/// comes with the FNV-1a of its full-size rendered report.
const WEATHER: [(u64, u64); 6] = [
    (1, 0x81ed_92e5_ffa3_a313),
    (2, 0xdf65_117b_4c7e_f59e),
    (3, 0x23f7_ec1d_dd3e_7f8b),
    (8, 0x5242_4636_37a6_b0d8),
    (14, 0xfc7c_73c7_74f6_616e),
    (23, 0x16e4_04b8_5962_1b28),
];

/// The campaign seed and recorded report hash for a run's `--seed`.
fn weather(seed: u64) -> (u64, u64) {
    WEATHER[(seed % WEATHER.len() as u64) as usize]
}

pub fn config(seed: u64, smoke: bool) -> FleetConfig {
    let mut config = FleetConfig::new(weather(seed).0, if smoke { 200 } else { NODES });
    config.days = 1;
    if smoke {
        config.sampled = 2;
    }
    config
}

/// A `PlanSource` that times the in-process planner it wraps.
struct TimedPlans {
    inner: AnalyticPlans,
    ns: u128,
    calls: u64,
}

impl PlanSource for TimedPlans {
    fn optimal_point(&mut self, g_bucket: f64) -> Result<Option<OperatingPoint>, FleetError> {
        let t0 = Instant::now();
        let point = self.inner.optimal_point(g_bucket);
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        point
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One campaign's timings (s) and its report.
struct Campaign {
    setup_s: f64,
    run_s: f64,
    render_s: f64,
    report: hems_fleet::FleetReport,
    lines: String,
}

fn campaign(config: FleetConfig, source: &mut dyn PlanSource) -> Result<Campaign, String> {
    let t0 = Instant::now();
    let fleet = Fleet::new(config).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let report = fleet.run(source).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let lines = report.render_lines().map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    Ok(Campaign {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        render_s: (t3 - t2).as_secs_f64(),
        report,
        lines,
    })
}

/// Zero violations, every storm recovered, and (full size) the report
/// bytes equal to the recorded ones.
fn check(out: &mut Outcome, seed: u64, smoke: bool, c: &Campaign) {
    let r = &c.report;
    out.attempted += r.storms + config(seed, smoke).sampled as u64;
    out.failed += r.unrecovered() + r.violations;
    if r.violations > 0 || r.unrecovered() > 0 {
        out.reject(format!(
            "{} violations, {} unrecovered storms",
            r.violations,
            r.unrecovered()
        ));
    }
    let (campaign_seed, want) = weather(seed);
    let hash = fnv1a(c.lines.as_bytes());
    if !smoke && hash != want {
        out.reject(format!(
            "report hash {hash:016x} != recorded {want:016x} for campaign seed {campaign_seed}"
        ));
    }
}

pub fn fleet_day(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let fleet_config = config(cfg.seed, cfg.smoke);
    let mut setups: Vec<f64> = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        black_box(Fleet::new(fleet_config).map_err(|e| e.to_string())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", lowest(setups.iter().copied()));

    if cfg.trace {
        trace(cfg, &mut out, fleet_config)?;
    } else {
        let t0 = Instant::now();
        let mut walls: Vec<f64> = Vec::new();
        let mut hashes = Vec::new();
        while walls.len() < MIN_CAMPAIGNS
            || t0.elapsed().as_secs_f64() + median(&walls) <= cfg.seconds
        {
            let c = campaign(fleet_config, &mut AnalyticPlans::new())?;
            check(&mut out, cfg.seed, cfg.smoke, &c);
            walls.push(c.run_s + c.render_s);
            hashes.push(fnv1a(c.lines.as_bytes()));
        }
        if hashes.windows(2).any(|w| w[0] != w[1]) {
            out.reject("campaigns of one seed rendered different reports");
        }
        // The least disturbed campaign, as for the serving workloads.
        let wall = lowest(walls.iter().copied());
        out.set(
            "throughput_hz",
            fleet_config.nodes as f64 * fleet_config.days as f64 / wall,
        );
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// One timed campaign plus a control campaign that samples a single
/// node: the wall-time difference is attributed to the sampled digests.
fn trace(cfg: &RunConfig, out: &mut Outcome, fleet_config: FleetConfig) -> Result<(), String> {
    let mut plans = TimedPlans {
        inner: AnalyticPlans::new(),
        ns: 0,
        calls: 0,
    };
    let c = campaign(fleet_config, &mut plans)?;
    check(out, cfg.seed, cfg.smoke, &c);
    let control = campaign(
        FleetConfig {
            sampled: 1,
            ..fleet_config
        },
        &mut AnalyticPlans::new(),
    )?;
    let wall = c.run_s + c.render_s;
    let plan_s = plans.ns as f64 / 1e9;
    let digest_s = wall - (control.run_s + control.render_s);
    out.set("fleet.setup_ms", c.setup_s * 1e3);
    out.set("fleet.plan_ms", plan_s * 1e3);
    out.set("fleet.plan_calls", plans.calls as f64);
    out.set("fleet.digest_s", digest_s);
    out.set("fleet.step_s", wall - plan_s - digest_s - c.render_s);
    out.set("fleet.render_ms", c.render_s * 1e3);
    out.set("fleet.node_steps", c.report.node_steps as f64);
    out.set("fleet.events", c.report.events as f64);

    let weather = WeatherField::new(
        fleet_config.seed,
        fleet_config.grid_w,
        fleet_config.grid_h,
        fleet_config.epoch_s as f64,
        fleet_config.days,
        fleet_config.storms_per_day,
    );
    let epochs = 86_400 / fleet_config.epoch_s;
    let t0 = Instant::now();
    let mut sum = 0.0;
    for epoch in (0..epochs).step_by(7) {
        for region in 0..weather.regions() {
            sum += weather.irradiance(black_box(region), black_box(epoch));
        }
    }
    let calls = epochs.div_ceil(7) as f64 * weather.regions() as f64;
    black_box(sum);
    out.set("fleet.weather_ns", t0.elapsed().as_nanos() as f64 / calls);
    out.notes.push(ledger(
        "fleet_day",
        "wall_s",
        wall,
        &[
            ("plan", plan_s),
            ("digest", digest_s),
            ("step", wall - plan_s - digest_s - c.render_s),
            ("render", c.render_s),
        ],
    ));
    Ok(())
}
