//! Metric names, units, and the result line. The names here must equal
//! those in `BENCHMARK.json`; the self-test holds them together.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_hz", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload's traffic never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("serve.floor_us", "us"),
    ("serve.parse_ns", "ns"),
    ("serve.build_ns", "ns"),
    ("serve.key_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("serve.hit_ratio", "ratio"),
    ("serve.batches", "count"),
    ("serve.batch_mean", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.queue_wait_us", "us"),
    ("core.optimal_point_us", "us"),
    ("core.mep_us", "us"),
    ("core.sprint_us", "us"),
    ("core.bypass_us", "us"),
    ("sim.sweep_chunked_us", "us"),
    ("serve.render_ns", "ns"),
    ("serve.connect_us", "us"),
    ("serve.first_response_us", "us"),
    ("router.plan_key_ns", "ns"),
    ("router.ring_ns", "ns"),
    ("router.forward_us", "us"),
    ("router.added_us", "us"),
    ("router.shard_share_max", "ratio"),
    ("fleet.setup_ms", "ms"),
    ("fleet.plan_ms", "ms"),
    ("fleet.plan_calls", "count"),
    ("fleet.weather_ns", "ns"),
    ("fleet.digest_s", "s"),
    ("fleet.step_s", "s"),
    ("fleet.render_ms", "ms"),
    ("fleet.node_steps", "count"),
    ("fleet.events", "count"),
    ("load.lag_p50_us", "us"),
    ("load.lag_p99_us", "us"),
    ("load.sent", "count"),
    ("load.p50_us", "us"),
    ("load.p99_us", "us"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Lines printed before the result: ledgers, failure reasons.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks the run incorrect with a reason.
    pub fn reject(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes
            .push(format!("{{\"check_failed\":{:?}}}", why.into()));
    }

    /// Whether every end-to-end metric was measured (traced runs read
    /// unmeasured layers as 0).
    pub fn is_complete(&self, trace: bool) -> bool {
        trace
            || END_TO_END
                .iter()
                .all(|(name, _)| self.values.contains_key(name))
    }

    /// The result line: the traced or untraced metric set, in table
    /// order. An end-to-end metric the run did not set is a bug.
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
