//! The service: TCP acceptor, per-connection readers, and the micro-batcher.
//!
//! ## Thread anatomy
//!
//! ```text
//! acceptor ──► reader (one per connection)
//!                │  parse → stats/shutdown inline
//!                │  cache hit → respond inline (cached: true)
//!                │  cache miss → bounded queue ──► batcher ──► worker pool
//!                │  queue full → overloaded          │  (fan out one batch,
//!                ▼                                   ▼   in-batch dedup)
//!              client ◄──────────────── responses written per-pending
//! ```
//!
//! ## Admission control
//!
//! The miss queue is bounded ([`ServeConfig::max_queue`]). A full queue
//! refuses the request with an explicit `overloaded` response instead of
//! queueing unboundedly — under a compute-bound load the client learns to
//! back off within one round trip, and accepted requests keep a bounded
//! latency. Cache hits, `stats`, and errors bypass the queue entirely, so
//! an overloaded server still answers cheap traffic.
//!
//! ## Batching
//!
//! The batcher drains up to [`ServeConfig::max_batch`] pending misses at a
//! time, dedupes them by cache key (concurrent identical misses share one
//! solve), and fans the distinct jobs out across the sim crate's
//! [`WorkerPool`]. Results are rendered once, inserted into the cache, and
//! written to every waiter of that key.
//!
//! ## Shutdown
//!
//! A `shutdown` query (or [`ServerHandle::shutdown`]) flips the accepting
//! flag, wakes the batcher, and *drains*: every request already accepted
//! into the queue is answered before the batcher exits and the pool joins.
//! Requests arriving after the flag see `overloaded` with a "shutting
//! down" reason.

use crate::cache::PlanCache;
use crate::planner::{self, PlanJob};
use crate::proto::{
    error_response, ok_response, overloaded_response, retryable_error_response, QueryKind, Request,
};
use crate::stats::ServeStats;
use crate::sync::relock;
use crate::wire::{is_timeout, read_line_bounded, send_line, MAX_LINE_BYTES};
use hems_obs::clock::monotonic_ns;
use hems_sim::WorkerPool;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for plan solves (`None` → `HEMS_THREADS` or the
    /// machine's parallelism, like the sweep engine).
    pub threads: Option<usize>,
    /// Total plan-cache entries across shards.
    pub cache_capacity: usize,
    /// Bounded miss-queue depth; beyond it requests get `overloaded`.
    pub max_queue: usize,
    /// Most misses fanned out in one batch.
    pub max_batch: usize,
    /// Longest accepted request line, bytes (DoS guard).
    pub max_line_bytes: usize,
    /// Per-connection read deadline. A client that stays silent (or drips
    /// bytes slower than one line per deadline — slow loris) is reaped and
    /// its handler thread reclaimed. `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a client that stops draining its
    /// receive window cannot pin a writer forever. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Deterministic fault injection for chaos campaigns: `Some(n)` makes
    /// every n-th batched job panic inside the worker pool instead of
    /// solving. The panic exercises the real isolation path — the slot's
    /// waiters get a retryable degraded response, the batch survives, the
    /// `faults` counter ticks. `None` (the default) injects nothing.
    pub inject_panic_one_in: Option<u64>,
    /// Shard identity for router-fronted deployments: when set, `stats`
    /// responses carry a `shard` field. The router's connect handshake
    /// probes it and refuses to pool connections to a backend whose
    /// reported identity disagrees with the ring slot it was registered
    /// under (a misconfigured shard set silently destroys cache affinity;
    /// the handshake turns that into an ejection instead).
    pub shard_id: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: None,
            cache_capacity: 1024,
            max_queue: 256,
            max_batch: 32,
            max_line_bytes: MAX_LINE_BYTES,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            inject_panic_one_in: None,
            shard_id: None,
        }
    }
}

/// One accepted cache miss waiting for the batcher.
struct Pending {
    id: crate::json::Value,
    job: PlanJob,
    conn: Arc<Mutex<TcpStream>>,
    accepted_at: u64,
}

struct Shared {
    config: ServeConfig,
    cache: PlanCache,
    stats: ServeStats,
    queue: Mutex<VecDeque<Pending>>,
    queue_ready: Condvar,
    /// Cleared on shutdown: new work is refused.
    accepting: AtomicBool,
    /// Flipped (and broadcast) when the batcher has drained and exited.
    drained_cv: (Mutex<bool>, Condvar),
    pool: WorkerPool,
    /// Jobs dispatched to the pool so far — the deterministic counter the
    /// `inject_panic_one_in` chaos hook keys off.
    jobs_dispatched: AtomicU64,
}

impl Shared {
    fn queue_depth(&self) -> usize {
        relock(&self.queue).len()
    }

    /// The `stats` response body: the counter snapshot, plus the shard
    /// identity when this server runs as a router-fronted shard.
    fn stats_value(&self) -> crate::json::Value {
        let snapshot =
            self.stats
                .snapshot(self.queue_depth(), self.cache.len(), self.pool.threads());
        match (self.config.shard_id, snapshot) {
            (Some(sid), crate::json::Value::Obj(mut fields)) => {
                fields.push(("shard".to_string(), crate::json::Value::Num(sid as f64)));
                crate::json::Value::Obj(fields)
            }
            (_, snapshot) => snapshot,
        }
    }

    fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        // Wake the batcher even if the queue is empty so it can exit.
        self.queue_ready.notify_all();
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live service counters (the same snapshot a `stats` query returns).
    pub fn stats_snapshot(&self) -> crate::json::Value {
        self.shared.stats_value()
    }

    /// Initiates graceful shutdown *without* joining: stops accepting,
    /// wakes the batcher to drain, and returns immediately. This is the
    /// drain hook a supervisor (the router's drain-and-rejoin protocol,
    /// the chaos crash/restart surface) uses to take a backend out of
    /// rotation while its in-flight batches still complete; follow with
    /// [`ServerHandle::wait`] or [`ServerHandle::shutdown`] to join.
    pub fn begin_drain(&self) {
        self.shared.begin_shutdown();
    }

    /// Initiates graceful shutdown and blocks until in-flight work drains.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Blocks until the server shuts down (e.g. by a wire `shutdown`
    /// query).
    pub fn wait(&mut self) {
        {
            let (lock, cv) = &self.shared.drained_cv;
            let mut drained = relock(lock);
            while !*drained {
                drained = cv
                    .wait(drained)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let pool = WorkerPool::with_default_threads(config.threads);
    let stats = ServeStats::new();
    let shared = Arc::new(Shared {
        cache: PlanCache::with_registry(config.cache_capacity, stats.registry()),
        stats,
        queue: Mutex::new(VecDeque::new()),
        queue_ready: Condvar::new(),
        accepting: AtomicBool::new(true),
        drained_cv: (Mutex::new(false), Condvar::new()),
        pool,
        jobs_dispatched: AtomicU64::new(0),
        config,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("hems-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    let batcher = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("hems-serve-batch".to_string())
            .spawn(move || batch_loop(&shared))
    };
    let batcher = match batcher {
        Ok(handle) => handle,
        Err(e) => {
            // Without a batcher the server would accept and never answer;
            // unwind the acceptor before reporting the failure.
            shared.begin_shutdown();
            let _ = acceptor.join();
            return Err(e);
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        batcher: Some(batcher),
    })
}

/// Shortest accept-loop poll/backoff step.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Cap for the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Reader threads detach; they exit when their connection closes or
    // shutdown refuses further work. Nonblocking accept lets the acceptor
    // poll the shutdown flag without a self-connect trick.
    let mut error_backoff = ACCEPT_POLL;
    while shared.accepting.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                error_backoff = ACCEPT_POLL;
                // One small response line per request: Nagle + delayed ACK
                // would add ~40 ms to every round trip.
                let _ = stream.set_nodelay(true);
                // Deadlines are the slow-loris/half-open defence: a
                // connection that cannot make a line's progress per
                // deadline is reaped, not parked forever.
                let _ = stream.set_read_timeout(shared.config.read_timeout);
                let _ = stream.set_write_timeout(shared.config.write_timeout);
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("hems-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Idle poll: fixed short sleep keeps shutdown responsive.
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Persistent accept errors (EMFILE, ENOBUFS, …) must not
                // hot-loop at 200 Hz: back off exponentially to a cap, and
                // reset on the next successful accept.
                thread::sleep(error_backoff);
                error_backoff = (error_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => return, // clean EOF
            Err(e) if is_timeout(&e) => {
                // Read deadline expired: an idle, half-open, or slow-loris
                // connection. Reap it quietly — the close *is* the signal,
                // and writing into a stalled socket could itself block
                // until the write deadline.
                shared.stats.reaped.inc();
                return;
            }
            Err(_) => {
                shared.stats.errors.inc();
                let reply = error_response(&crate::json::Value::Null, "bad line");
                let _ = send_line(&mut relock(&writer), &reply);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = monotonic_ns();
        shared.stats.requests.inc();
        let request = match Request::parse_line(&line) {
            Ok(request) => request,
            Err((id, message)) => {
                shared.stats.errors.inc();
                let reply = error_response(&id, &message);
                let _ = send_line(&mut relock(&writer), &reply);
                continue;
            }
        };
        match request.kind {
            QueryKind::Stats => {
                let reply = ok_response(&request.id, false, shared.stats_value());
                let _ = send_line(&mut relock(&writer), &reply);
                shared.stats.record_latency_ns(elapsed_ns(started));
            }
            QueryKind::Metrics => {
                // Merge the process-global registry (sweep, pool, LUT
                // series) with this server's own (serve.*, cache).
                let merged = hems_obs::global()
                    .snapshot()
                    .merged(shared.stats.registry().snapshot());
                let reply = ok_response(&request.id, false, merged.to_value());
                let _ = send_line(&mut relock(&writer), &reply);
                shared.stats.record_latency_ns(elapsed_ns(started));
            }
            QueryKind::Shutdown => {
                let reply = ok_response(
                    &request.id,
                    false,
                    crate::json::Value::obj(vec![("draining", crate::json::Value::Bool(true))]),
                );
                let _ = send_line(&mut relock(&writer), &reply);
                shared.begin_shutdown();
                return;
            }
            _ => handle_plan_query(shared, &writer, request, started),
        }
    }
}

fn handle_plan_query(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    request: Request,
    started: u64,
) {
    let Some(spec) = request.scenario else {
        // Parsing guarantees plan queries carry a scenario; answer rather
        // than crash the connection if that invariant ever slips.
        shared.stats.errors.inc();
        let reply = error_response(&request.id, "plan query is missing a scenario");
        let _ = send_line(&mut relock(writer), &reply);
        return;
    };
    let job = match PlanJob::build(request.kind, spec) {
        Ok(job) => job,
        Err(message) => {
            shared.stats.errors.inc();
            let reply = error_response(&request.id, &message);
            let _ = send_line(&mut relock(writer), &reply);
            return;
        }
    };
    if let Some(rendered) = shared.cache.get(job.key) {
        shared.stats.hits.inc();
        let reply = ok_line(&request.id, true, &rendered);
        let _ = send_line(&mut relock(writer), &reply);
        shared.stats.record_latency_ns(elapsed_ns(started));
        return;
    }
    // Admission control: refuse instead of queueing unboundedly. The
    // accepting flag is checked under the queue lock so shutdown cannot
    // race an enqueue past the drain.
    let refused = {
        let mut queue = relock(&shared.queue);
        if !shared.accepting.load(Ordering::SeqCst) {
            Some("shutting down")
        } else if queue.len() >= shared.config.max_queue {
            Some("queue full, back off and retry")
        } else {
            shared.stats.misses.inc();
            queue.push_back(Pending {
                id: request.id.clone(),
                job,
                conn: Arc::clone(writer),
                accepted_at: started,
            });
            None
        }
    };
    match refused {
        Some(reason) => {
            shared.stats.overloaded.inc();
            let reply = overloaded_response(&request.id, reason);
            let _ = send_line(&mut relock(writer), &reply);
        }
        None => shared.queue_ready.notify_one(),
    }
}

/// Renders an `ok` response by splicing an already-rendered result —
/// cache hits and batch fan-out never re-serialize the result object.
fn ok_line(id: &crate::json::Value, cached: bool, rendered_result: &str) -> String {
    let mut line = String::with_capacity(rendered_result.len() + 48);
    line.push_str("{\"id\":");
    line.push_str(&id.render());
    line.push_str(",\"status\":\"ok\",\"cached\":");
    line.push_str(if cached { "true" } else { "false" });
    line.push_str(",\"result\":");
    line.push_str(rendered_result);
    line.push('}');
    line
}

fn elapsed_ns(started_ns: u64) -> f64 {
    monotonic_ns().saturating_sub(started_ns) as f64
}

fn batch_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<Pending> = {
            let mut queue = relock(&shared.queue);
            loop {
                if !queue.is_empty() {
                    let n = queue.len().min(shared.config.max_batch);
                    break queue.drain(..n).collect();
                }
                if !shared.accepting.load(Ordering::SeqCst) {
                    // Queue empty and no new work can arrive: drained.
                    drop(queue);
                    let (lock, cv) = &shared.drained_cv;
                    *relock(lock) = true;
                    cv.notify_all();
                    return;
                }
                queue = shared
                    .queue_ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        // In-batch dedup: waiters grouped per key, one solve per key.
        let mut waiters: HashMap<u64, Vec<Pending>> = HashMap::new();
        let mut jobs: Vec<PlanJob> = Vec::new();
        for pending in batch {
            let entry = waiters.entry(pending.job.key).or_default();
            if entry.is_empty() {
                jobs.push(pending.job.clone());
            }
            entry.push(pending);
        }
        shared.stats.record_batch(jobs.len());

        // Partition the deduped misses: sweep summaries ride the sweep
        // engine's chunked batch entry — the whole micro-batch becomes one
        // scenario list, whole chunks travel the pool per job, and answers
        // come back in list order through the same exact device models, so
        // responses stay byte-identical to the per-job path. Everything
        // else (analytic solves, plus any chaos-injected job so the fault
        // hook keeps its per-key blast radius) takes a pool slot of its
        // own via run_jobs_result.
        let mut unit_jobs: Vec<(u64, PlanJob, bool)> = Vec::new();
        let mut sweep_jobs: Vec<(u64, PlanJob)> = Vec::new();
        for job in jobs {
            let nth = shared.jobs_dispatched.fetch_add(1, Ordering::Relaxed) + 1;
            let inject = shared
                .config
                .inject_panic_one_in
                .is_some_and(|n| n > 0 && nth.is_multiple_of(n));
            if job.kind == QueryKind::SweepSummary && !inject {
                sweep_jobs.push((job.key, job));
            } else {
                unit_jobs.push((job.key, job, inject));
            }
        }

        // Outcome per key: Ok(answer-or-semantic-error) or Err(fault text).
        type KeyedOutcome = (u64, Result<Result<crate::json::Value, String>, String>);
        let mut outcomes: Vec<KeyedOutcome> = Vec::new();
        if !sweep_jobs.is_empty() {
            let scenarios: Vec<_> = sweep_jobs
                .iter()
                .enumerate()
                .map(|(i, (_, job))| planner::scenario_for(job, i))
                .collect();
            // The integrator is panic-free by contract; the guard keeps a
            // violation degrading this batch's sweep keys (retryably)
            // instead of killing the batcher thread.
            let chunked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                hems_sim::sweep::run_scenarios_chunked(
                    &scenarios,
                    &shared.pool,
                    hems_sim::sweep::BATCH_LANES,
                )
            }));
            match chunked {
                Ok(results) => {
                    for ((key, _), result) in sweep_jobs.iter().zip(results) {
                        outcomes.push((*key, Ok(planner::sweep_answer(result))));
                    }
                }
                Err(_) => {
                    for (key, _) in &sweep_jobs {
                        outcomes
                            .push((*key, Err("internal fault: sweep batch paniced".to_string())));
                    }
                }
            }
        }

        // run_jobs_result isolates a panicking solve to its own slot:
        // that key's waiters get an error response and every other job
        // in the batch (and the pool itself) carries on.
        let unit_keys: Vec<u64> = unit_jobs.iter().map(|(key, _, _)| *key).collect();
        let answers = shared.pool.run_jobs_result(
            unit_jobs
                .into_iter()
                .map(|(_, job, inject)| {
                    move || {
                        if inject {
                            // hems-lint: allow(panic, reason = "chaos hook: opt-in injected worker fault, caught by run_jobs_result")
                            panic!("chaos: injected worker fault");
                        }
                        planner::answer(&job)
                    }
                })
                .collect::<Vec<_>>(),
        );
        for (key, outcome) in unit_keys.into_iter().zip(answers) {
            outcomes.push((
                key,
                outcome.map_err(|panic| format!("internal fault: {}", panic.message())),
            ));
        }

        for (key, outcome) in outcomes {
            let pendings = waiters.remove(&key).unwrap_or_default();
            match outcome {
                Ok(Ok(result)) => {
                    let rendered = result.render();
                    shared.cache.insert(key, rendered.clone());
                    for p in pendings {
                        let reply = ok_line(&p.id, false, &rendered);
                        let _ = send_line(&mut relock(&p.conn), &reply);
                        shared.stats.record_latency_ns(elapsed_ns(p.accepted_at));
                    }
                }
                Ok(Err(message)) => {
                    // A semantic failure (malformed scenario, infeasible
                    // plan): resubmitting the same request cannot succeed,
                    // so the error is terminal. Not cached — a transiently
                    // infeasible plan (e.g. a race on darkness) should not
                    // poison the key.
                    shared.stats.errors.inc();
                    for p in pendings {
                        let reply = error_response(&p.id, &message);
                        let _ = send_line(&mut relock(&p.conn), &reply);
                        shared.stats.record_latency_ns(elapsed_ns(p.accepted_at));
                    }
                }
                Err(message) => {
                    // A worker panic is a *fault*, not a verdict about the
                    // request: only this key's waiters degrade (the rest of
                    // the batch already has answers) and the response is
                    // marked retryable so a well-behaved client resubmits.
                    shared.stats.faults.inc();
                    for p in pendings {
                        let reply = retryable_error_response(&p.id, &message);
                        let _ = send_line(&mut relock(&p.conn), &reply);
                        shared.stats.record_latency_ns(elapsed_ns(p.accepted_at));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::proto::ScenarioSpec;
    use std::io::{BufRead, Read, Write};

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: Some(2),
            cache_capacity: 64,
            max_queue: 64,
            max_batch: 8,
            max_line_bytes: 16 * 1024,
            ..ServeConfig::default()
        }
    }

    fn query_line(stream: &mut TcpStream, line: &str) -> Value {
        send_line(stream, line).expect("write request");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        parse(&response).expect("response is JSON")
    }

    #[test]
    fn answers_a_plan_query_then_serves_the_repeat_from_cache() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let line = Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5)));
        let first = query_line(&mut stream, &line);
        assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
        let second = query_line(&mut stream, &line);
        assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(
            first.get("result").map(Value::render),
            second.get("result").map(Value::render),
            "cached result is byte-identical"
        );
        let stats = handle.stats_snapshot();
        assert_eq!(stats.get("hits").and_then(Value::as_f64), Some(1.0));
        assert_eq!(stats.get("misses").and_then(Value::as_f64), Some(1.0));
        handle.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let bad = query_line(&mut stream, r#"{"id":5,"query":"nope"}"#);
        assert_eq!(bad.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(bad.get("id").and_then(Value::as_f64), Some(5.0));
        // Same connection still answers good queries.
        let ok = query_line(&mut stream, r#"{"id":6,"query":"stats"}"#);
        assert_eq!(ok.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_by_the_read_deadline() {
        let config = ServeConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Say nothing. The server must hang up on its own; without the
        // deadline this read would block forever (the old slow-loris bug).
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("server closed cleanly");
        assert_eq!(n, 0, "reap is a plain close, not an error frame");
        let stats = handle.stats_snapshot();
        assert_eq!(stats.get("reaped").and_then(Value::as_f64), Some(1.0));
        handle.shutdown();
    }

    #[test]
    fn torn_frame_gets_an_error_and_the_next_frame_still_parses() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A frame torn mid-byte but newline-terminated: the parser must
        // reject it without killing the connection.
        let torn = query_line(&mut stream, r#"{"id":8,"query":"mep","scenario":{"irr"#);
        assert_eq!(torn.get("status").and_then(Value::as_str), Some("error"));
        let ok = query_line(&mut stream, r#"{"id":9,"query":"stats"}"#);
        assert_eq!(ok.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn fragmented_frames_reassemble_within_the_deadline() {
        let config = ServeConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let line = format!(
            "{}\n",
            Request::render_line(3, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.3)))
        );
        // Drip the request a few bytes at a time (a slow but honest
        // client); the per-line reader must reassemble it.
        for chunk in line.as_bytes().chunks(7) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let value = parse(&response).unwrap();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn injected_worker_faults_degrade_to_retryable_errors() {
        let config = ServeConfig {
            inject_panic_one_in: Some(2), // every 2nd batched job panics
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let first = query_line(
            &mut stream,
            &Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5))),
        );
        assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
        // A distinct scenario forces a second solve: job #2 panics in the
        // pool, and the waiter gets a retryable degraded response instead
        // of a dead connection or a dead server.
        let second = query_line(
            &mut stream,
            &Request::render_line(2, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.6))),
        );
        assert_eq!(second.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(second.get("retryable").and_then(Value::as_bool), Some(true));
        // The batch pipeline survived the panic.
        let stats = query_line(&mut stream, r#"{"id":3,"query":"stats"}"#);
        assert_eq!(stats.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            stats
                .get("result")
                .and_then(|r| r.get("faults"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        handle.shutdown();
    }

    #[test]
    fn wire_shutdown_unblocks_wait() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let bye = query_line(&mut stream, r#"{"id":1,"query":"shutdown"}"#);
        assert_eq!(bye.get("status").and_then(Value::as_str), Some("ok"));
        handle.wait(); // must return, not hang
    }
}
