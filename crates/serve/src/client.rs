//! A retrying client: bounded exponential backoff, deterministic jitter,
//! and idempotent re-submission.
//!
//! The server's failure answers are all *safe to retry* for plan queries:
//! plan queries are pure functions of their scenario, so resubmitting the
//! identical request cannot double-apply anything. The client leans on
//! that — it correlates request and response by the scenario's canonical
//! FNV-1a cache key (rendered as a hex string, since a 64-bit key does not
//! fit losslessly in a JSON number) so a resubmission is byte-identical to
//! the original and lands on the same server-side cache entry.
//!
//! Retry triggers: connection failures, torn/short responses, `overloaded`
//! (admission control says back off), and `error` responses flagged
//! `retryable` (a worker fault, not a verdict). A plain `error` is
//! terminal — the request itself is unanswerable and retrying cannot help.
//!
//! Backoff between attempts ([`backoff`]) doubles from
//! [`RetryPolicy::base_delay`] up to [`RetryPolicy::max_delay`], scaled by
//! a deterministic jitter factor in `[0.5, 1.0]` drawn from the seeded
//! xorshift RNG — the same seed always produces the same retry schedule,
//! which keeps chaos campaigns reproducible.

use crate::json::{parse, Value};
use crate::proto::{QueryKind, Request, ScenarioSpec};
use crate::wire::{read_line_bounded, send_line, MAX_LINE_BYTES};
use hems_units::XorShiftRng;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// How a [`Client`] retries: attempt budget, backoff shape, deadlines.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Most attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Per-attempt socket read/write deadline.
    pub request_timeout: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 1,
        }
    }
}

/// The jittered backoff before attempt `attempt` (1-based, so the first
/// retry is attempt 2): `base · 2^(attempt−2)` capped at `max`, scaled
/// by a jitter factor `0.5 + 0.5·u` with `u` drawn from `rng`. The one
/// retry schedule of the serving tier: [`Client`] and the router's
/// forward loop both sleep for it.
pub fn backoff(attempt: u32, base: Duration, max: Duration, rng: &mut XorShiftRng) -> Duration {
    let doublings = attempt.saturating_sub(2).min(20);
    let raw = base.saturating_mul(1u32.checked_shl(doublings).unwrap_or(u32::MAX));
    raw.min(max).mul_f64(0.5 + 0.5 * rng.next_f64())
}

/// A terminal client-side failure (retries exhausted or pointless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server understood the request and said it is unanswerable;
    /// retrying the identical request cannot succeed.
    Rejected(String),
    /// Every attempt failed with a retryable condition.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last retryable failure, for diagnostics.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(message) => write!(f, "request rejected: {message}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A successfully answered plan query.
#[derive(Debug, Clone)]
pub struct PlanAnswer {
    /// The rendered plan (the response's `result` object).
    pub result: Value,
    /// Whether the server answered from its plan cache.
    pub cached: bool,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// A reconnecting, retrying connection to a `hems-serve` endpoint.
///
/// One request is in flight at a time; responses are matched to requests
/// by id, and any protocol confusion (torn frame, id mismatch, short read)
/// drops the connection and retries on a fresh one.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: XorShiftRng,
    conn: Option<BufReader<TcpStream>>,
    retries: u64,
}

impl Client {
    /// A client for `addr`. Connects lazily on the first request.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let rng = XorShiftRng::seed_from_u64(policy.jitter_seed);
        Client {
            addr,
            policy,
            rng,
            conn: None,
            retries: 0,
        }
    }

    /// Total retry attempts performed over the client's lifetime (not
    /// counting each request's first try).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Asks a plan query, retrying per the policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the server terminally refuses the
    /// request; [`ClientError::Exhausted`] when the attempt budget runs
    /// out on retryable failures.
    pub fn plan(
        &mut self,
        kind: QueryKind,
        spec: &ScenarioSpec,
    ) -> Result<PlanAnswer, ClientError> {
        // The idempotency key: the same canonical key the server caches
        // under, so a resubmitted request is byte-identical and a repeat
        // answer comes straight from cache.
        let id = match spec.build() {
            Ok((config, policy)) => {
                Value::str(format!("{:016x}", spec.cache_key(kind, &config, &policy)))
            }
            Err(message) => return Err(ClientError::Rejected(message)),
        };
        let line = Request::render_line_with_id(&id, kind, Some(spec));
        let (answer, attempts) = self.call(&line, &id)?;
        Ok(PlanAnswer {
            result: answer.result,
            cached: answer.cached,
            attempts,
        })
    }

    /// Fetches the server's stats snapshot (no retries beyond the policy).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::plan`].
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        let id = Value::str("stats");
        let line = Request::render_line_with_id(&id, QueryKind::Stats, None);
        Ok(self.call(&line, &id)?.0.result)
    }

    /// Sends `line` until it is answered, terminally refused, or the
    /// attempt budget runs out, backing off between attempts. Returns
    /// the answer and the attempts it took (1 = first try).
    fn call(&mut self, line: &str, id: &Value) -> Result<(Answered, u32), ClientError> {
        let mut last = String::new();
        for attempt in 1..=self.policy.max_attempts.max(1) {
            if attempt > 1 {
                self.retries += 1;
                let (base, max) = (self.policy.base_delay, self.policy.max_delay);
                thread::sleep(backoff(attempt, base, max, &mut self.rng));
            }
            match self.attempt(line, id) {
                Ok(Outcome::Answered(answer)) => return Ok((answer, attempt)),
                Ok(Outcome::Terminal(message)) => return Err(ClientError::Rejected(message)),
                Ok(Outcome::Retry(message)) => last = message,
                Err(e) => {
                    // IO trouble: the connection is suspect, rebuild it.
                    self.conn = None;
                    last = e.to_string();
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.policy.max_attempts.max(1),
            last,
        })
    }

    fn connection(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            let _ = stream.set_nodelay(true);
            stream.set_read_timeout(Some(self.policy.request_timeout))?;
            stream.set_write_timeout(Some(self.policy.request_timeout))?;
            self.conn = Some(BufReader::new(stream));
        }
        self.conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))
    }

    /// One wire round trip. `Err` means the connection is unusable.
    fn attempt(&mut self, line: &str, want_id: &Value) -> io::Result<Outcome> {
        let reader = self.connection()?;
        send_line(reader.get_mut(), line)?;
        let Some(response) = read_line_bounded(reader, MAX_LINE_BYTES)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        };
        let value = parse(&response).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("torn response: {e}"))
        })?;
        if value.get("id") != Some(want_id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response id does not match the in-flight request",
            ));
        }
        let status = value.get("status").and_then(Value::as_str).unwrap_or("");
        let message = || {
            value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unexplained failure")
                .to_string()
        };
        match status {
            "ok" => Ok(Outcome::Answered(Answered {
                result: value.get("result").cloned().unwrap_or(Value::Null),
                cached: value
                    .get("cached")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            })),
            "overloaded" => Ok(Outcome::Retry(format!("overloaded: {}", message()))),
            "error" => {
                let retryable = value
                    .get("retryable")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                if retryable {
                    Ok(Outcome::Retry(message()))
                } else {
                    Ok(Outcome::Terminal(message()))
                }
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response status '{other}'"),
            )),
        }
    }
}

struct Answered {
    result: Value,
    cached: bool,
}

enum Outcome {
    Answered(Answered),
    Terminal(String),
    Retry(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};

    fn test_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 42,
        }
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: Some(2),
            cache_capacity: 64,
            max_queue: 64,
            max_batch: 8,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // The capped-doubling raw delay, scaled by the seed's first draw.
        let ms = Duration::from_millis;
        let within = |attempt: u32, base: Duration, max: Duration, raw: Duration| {
            let mut rng = XorShiftRng::seed_from_u64(u64::from(attempt));
            let delay = backoff(attempt, base, max, &mut rng);
            let mut draw = XorShiftRng::seed_from_u64(u64::from(attempt));
            assert_eq!(
                delay,
                raw.mul_f64(0.5 + 0.5 * draw.next_f64()),
                "attempt {attempt}"
            );
        };
        // Client policy shape: base 10 ms, cap 70 ms.
        within(2, ms(10), ms(70), ms(10));
        within(3, ms(10), ms(70), ms(20));
        within(4, ms(10), ms(70), ms(40));
        within(5, ms(10), ms(70), ms(70));
        within(30, ms(10), ms(70), ms(70));
        // The router's default schedule (RouterConfig: 5 ms, cap 200 ms).
        within(2, ms(5), ms(200), ms(5));
        within(3, ms(5), ms(200), ms(10));
        within(4, ms(5), ms(200), ms(20));
    }

    #[test]
    fn jitter_schedule_is_deterministic_per_seed() {
        let mut a = XorShiftRng::seed_from_u64(7);
        let mut b = XorShiftRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn plan_round_trips_and_repeats_hit_the_cache() {
        let mut handle = serve("127.0.0.1:0", small_config()).expect("bind");
        let mut client = Client::new(handle.addr(), test_policy());
        let spec = ScenarioSpec::baseline(0.5);
        let first = client.plan(QueryKind::Mep, &spec).expect("first answer");
        assert!(!first.cached);
        assert_eq!(first.attempts, 1);
        let second = client.plan(QueryKind::Mep, &spec).expect("second answer");
        assert!(second.cached, "identical resubmission lands on the cache");
        assert_eq!(first.result.render(), second.result.render());
        assert_eq!(client.retries(), 0);
        handle.shutdown();
    }

    #[test]
    fn reconnects_after_the_server_drops_the_connection() {
        let mut handle = serve("127.0.0.1:0", small_config()).expect("bind");
        let mut client = Client::new(handle.addr(), test_policy());
        let spec = ScenarioSpec::baseline(0.4);
        client.plan(QueryKind::Mep, &spec).expect("warm up");
        // Kill the client's current socket behind its back; the next call
        // sees EOF/reset and must transparently reconnect and retry.
        if let Some(reader) = client.conn.take() {
            drop(reader);
        }
        let answer = client.plan(QueryKind::Mep, &spec).expect("after reconnect");
        assert!(answer.cached);
        handle.shutdown();
    }

    #[test]
    fn invalid_scenarios_are_rejected_without_retries() {
        let mut handle = serve("127.0.0.1:0", small_config()).expect("bind");
        let mut client = Client::new(handle.addr(), test_policy());
        let spec = ScenarioSpec::baseline(3.0); // out of range: build() fails
        match client.plan(QueryKind::Mep, &spec) {
            Err(ClientError::Rejected(_)) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(client.retries(), 0, "terminal errors burn no retries");
        handle.shutdown();
    }

    #[test]
    fn oversized_replies_error_instead_of_buffering() {
        // A fake server that answers with one line just over the cap.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            read_line_bounded(&mut reader, MAX_LINE_BYTES).expect("request");
            let _ = send_line(&mut stream, &"x".repeat(MAX_LINE_BYTES + 1));
        });
        let policy = RetryPolicy {
            max_attempts: 1,
            ..test_policy()
        };
        let mut client = Client::new(addr, policy);
        match client.stats() {
            Err(ClientError::Exhausted { attempts: 1, last }) => {
                assert!(last.contains("exceeds the size cap"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        fake.join().expect("fake server");
    }

    #[test]
    fn exhaustion_reports_the_last_failure() {
        // Nothing listens on this address (bound then dropped).
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..test_policy()
        };
        let mut client = Client::new(addr, policy);
        match client.plan(QueryKind::Mep, &ScenarioSpec::baseline(0.5)) {
            Err(ClientError::Exhausted { attempts: 3, .. }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(client.retries(), 2);
    }
}
