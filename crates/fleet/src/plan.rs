//! The fleet's planning tier: forecast buckets in, operating points out.
//!
//! Once a day (a dawn wave, staggered per region), every region asks the
//! paper's `optimal_point` solver what frequency to run at given its noon
//! irradiance forecast. The forecast is quantized into a small number of
//! exact-binary buckets (`i/8` for the default 8), which does two things:
//!
//! * it keeps the workload *cacheable* — 100k nodes collapse onto ≤ 8
//!   distinct plan requests per day, a realistic hot-key skew for the
//!   serve tier's sharded plan cache;
//! * it keeps the report *deterministic* — bucket values are exact in
//!   binary, so the spec (and its cache key) is bit-identical everywhere.
//!
//! Two interchangeable [`PlanSource`]s answer those requests:
//! [`AnalyticPlans`] calls the pure in-process planner; [`ServePlans`]
//! round-trips each request through a live [`hems_serve::Client`] against
//! a loopback server. The serve JSON codec renders `f64`s shortest-round-
//! trip, so the two sources return *byte-identical* operating points —
//! the determinism integration test holds them to that.

use crate::error::FleetError;
use hems_obs::json::Value;
use hems_serve::client::{Client, ClientError, RetryPolicy};
use hems_serve::planner::{self, PlanJob};
use hems_serve::proto::{QueryKind, ScenarioSpec};
use std::collections::HashMap;
use std::net::SocketAddr;

/// A day's operating point for one region: what the solver said a node
/// in that light should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency the plan runs at, hertz.
    pub frequency_hz: f64,
    /// Total active input power draw at that point, watts.
    pub p_active_w: f64,
    /// The irradiance bucket the plan was solved for, `(0, 1]`.
    pub g_bucket: f64,
}

/// Quantizes a `[0, 1]` irradiance forecast onto `buckets` exact-binary
/// levels `i / buckets`, `i ∈ [1, buckets]` — never zero, so every
/// region always has *a* plan request worth asking.
pub fn quantize_forecast(forecast: f64, buckets: u32) -> f64 {
    let b = buckets.max(1) as f64;
    let idx = (forecast.clamp(0.0, 1.0) * b).round().clamp(1.0, b);
    idx / b
}

/// Something that can answer "what operating point for this light?".
///
/// `Ok(None)` means the request is *unanswerable* (the solver rejects the
/// scenario — e.g. light too dim to sustain any point): affected regions
/// idle for the day. `Err` means the planning tier itself failed.
pub trait PlanSource {
    /// The operating point for irradiance bucket `g_bucket`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when the source infrastructure fails (a
    /// serve client exhausting its retries, a malformed answer).
    fn optimal_point(&mut self, g_bucket: f64) -> Result<Option<OperatingPoint>, FleetError>;

    /// Short source name for the report (`"analytic"` / `"serve"`).
    fn name(&self) -> &'static str;
}

/// Pulls `frequency_hz` / `p_in_w` out of a planner `result` object.
fn point_from_result(result: &Value, g_bucket: f64) -> Result<OperatingPoint, FleetError> {
    let field = |name: &str| {
        result
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| FleetError::new("plan: answer", format!("missing field {name}")))
    };
    let frequency_hz = field("frequency_hz")?;
    let p_active_w = field("p_in_w")?;
    if !(frequency_hz.is_finite() && frequency_hz > 0.0 && p_active_w.is_finite()) {
        return Err(FleetError::new(
            "plan: answer",
            format!("non-physical point f={frequency_hz} p={p_active_w}"),
        ));
    }
    Ok(OperatingPoint {
        frequency_hz,
        p_active_w,
        g_bucket,
    })
}

/// The pure in-process planner, memoized per bucket — the fast path for
/// tests and serve-free runs.
#[derive(Debug, Default)]
pub struct AnalyticPlans {
    memo: HashMap<u64, Option<OperatingPoint>>,
}

impl AnalyticPlans {
    /// A fresh, empty-memo source.
    pub fn new() -> AnalyticPlans {
        AnalyticPlans::default()
    }
}

impl PlanSource for AnalyticPlans {
    fn optimal_point(&mut self, g_bucket: f64) -> Result<Option<OperatingPoint>, FleetError> {
        if let Some(hit) = self.memo.get(&g_bucket.to_bits()) {
            return Ok(*hit);
        }
        let spec = ScenarioSpec::baseline(g_bucket);
        // An unbuildable job or unanswerable query is a property of the
        // scenario, not an infrastructure failure: the region idles.
        let point = match PlanJob::build(QueryKind::OptimalPoint, spec) {
            Ok(job) => match planner::answer(&job) {
                Ok(result) => Some(point_from_result(&result, g_bucket)?),
                Err(_) => None,
            },
            Err(_) => None,
        };
        self.memo.insert(g_bucket.to_bits(), point);
        Ok(point)
    }

    fn name(&self) -> &'static str {
        "analytic"
    }
}

/// A live serve-backed source: every call is one real request through the
/// retrying [`Client`] — deliberately *not* memoized client-side, so a
/// campaign exercises the server's plan cache with the fleet's hot-key
/// skew. Determinism survives because the planner is a pure function of
/// the spec and the JSON codec round-trips `f64`s exactly.
#[derive(Debug)]
pub struct ServePlans {
    client: Client,
    requests: u64,
    cache_hits: u64,
}

impl ServePlans {
    /// A source talking to the (usually loopback) server at `addr`.
    pub fn new(addr: SocketAddr) -> ServePlans {
        ServePlans {
            client: Client::new(addr, RetryPolicy::default()),
            requests: 0,
            cache_hits: 0,
        }
    }

    /// Requests issued so far (perf telemetry — never in report lines).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests the server answered from its plan cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

impl PlanSource for ServePlans {
    fn optimal_point(&mut self, g_bucket: f64) -> Result<Option<OperatingPoint>, FleetError> {
        let spec = ScenarioSpec::baseline(g_bucket);
        self.requests += 1;
        match self.client.plan(QueryKind::OptimalPoint, &spec) {
            Ok(answer) => {
                if answer.cached {
                    self.cache_hits += 1;
                }
                Ok(Some(point_from_result(&answer.result, g_bucket)?))
            }
            Err(ClientError::Rejected(_)) => Ok(None),
            Err(other) => Err(FleetError::new("plan: serve client", other.to_string())),
        }
    }

    fn name(&self) -> &'static str {
        "serve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_exact_binary_and_never_zero() {
        assert_eq!(quantize_forecast(0.0, 8), 0.125);
        assert_eq!(quantize_forecast(1.0, 8), 1.0);
        assert_eq!(quantize_forecast(0.5, 8), 0.5);
        assert_eq!(quantize_forecast(0.49, 8), 0.5);
        assert_eq!(quantize_forecast(2.5, 8), 1.0);
        assert_eq!(quantize_forecast(-1.0, 8), 0.125);
        // i/8 is exact in binary: equality, not approximation.
        for i in 1..=8u32 {
            let g = i as f64 / 8.0;
            assert_eq!(quantize_forecast(g, 8), g);
        }
    }

    #[test]
    fn analytic_source_answers_and_memoizes() {
        let mut plans = AnalyticPlans::new();
        let a = plans.optimal_point(0.5).expect("plan").expect("answer");
        assert!(a.frequency_hz > 1e3, "f = {}", a.frequency_hz);
        assert!(a.p_active_w > 0.0);
        assert_eq!(a.g_bucket, 0.5);
        let b = plans.optimal_point(0.5).expect("plan").expect("answer");
        assert_eq!(a, b);
        assert_eq!(plans.memo.len(), 1);
        assert_eq!(plans.name(), "analytic");
    }

    #[test]
    fn dim_buckets_degrade_to_idle_not_error() {
        let mut plans = AnalyticPlans::new();
        // Some low bucket may be unanswerable; whatever happens it must
        // be Ok(_) — scenario rejection is idling, not failure.
        for i in 1..=8u32 {
            let g = i as f64 / 8.0;
            assert!(plans.optimal_point(g).is_ok(), "bucket {g}");
        }
    }

    #[test]
    fn brighter_buckets_never_plan_slower() {
        let mut plans = AnalyticPlans::new();
        let mut last = 0.0f64;
        for i in 1..=8u32 {
            let g = i as f64 / 8.0;
            if let Some(p) = plans.optimal_point(g).expect("plan") {
                assert!(
                    p.frequency_hz >= last * 0.999,
                    "bucket {g}: {} < {last}",
                    p.frequency_hz
                );
                last = p.frequency_hz;
            }
        }
        assert!(last > 0.0, "no bucket produced a plan");
    }
}
