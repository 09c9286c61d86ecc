//! The fault oracles: inject one seeded fault per case and require the
//! stack to recover with the fault-free answer.
//!
//! * **`power_faults`** — a blackout right after one commit of a
//!   sense → filter → classify chain browns the node out mid-chain. The
//!   faulted run must brown out, commit again after the window, and
//!   produce a commit stream whose prefix digest equals the fault-free
//!   stream's: no lost, repeated or reordered commit.
//! * **`compute_faults`** — a round of jobs on the worker pool, some
//!   stalled and some panicking. `run_jobs_result` must return `Err`
//!   exactly for the panicking slots and the right value everywhere else.
//! * **`net_faults`** — a serve instance that panics one solve in three
//!   takes the case's torn, spliced and bit-flipped frames raw, one plan
//!   through a [`ChaosProxy`] that tears or delays its first connection,
//!   and one direct attack (torn frames, a disconnect mid-response, a
//!   slow loris). The proxied answer must equal direct serve's byte for
//!   byte, every attack must be survived, and no `hems-serve-*` thread
//!   may panic.
//! * **`router_faults`** — a 3-shard router tier loses one backend
//!   (restarted on a fresh port and repointed) or, rarely, has one slowed
//!   behind a delaying proxy. The case's specs must answer as direct
//!   serve answers them during and after the episode, and the slot must
//!   return to `healthy`.
//!
//! Every fault is drawn from the case (`light_seed`, `specs`, `frames`),
//! so a failing case shrinks and replays as `oracle:0xSEED:steps` like
//! any other. Each oracle is a harness that injects the fault and records
//! what it saw, plus a verdict that is a pure function of that record;
//! the verdicts are unit-tested on planted bad observations.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hems_core::cachekey::KeyHasher;
use hems_intermittent::{
    CheckpointPolicy, CommitEvent, IntermittentRuntime, NvmModel, Task, TaskChain,
};
use hems_obs::json::{self, Value};
use hems_pv::Irradiance;
use hems_router::{HealthPolicy, RouterConfig, RouterHandle};
use hems_serve::accept::{self, AcceptGate};
use hems_serve::server::{serve, ServeConfig, ServerHandle};
use hems_serve::{Client, ClientError, PlanAnswer, QueryKind, Request, RetryPolicy, ScenarioSpec};
use hems_sim::{FixedVoltageController, LightProfile, Simulation, SystemConfig, WorkerPool};
use hems_units::{Cycles, Seconds, Volts, XorShiftRng};

use crate::case::CaseInput;
use crate::error::ConformanceError;
use crate::oracles::{digest_events, query_for, start_shard, start_tier, Divergence, OracleCtx};
use crate::oracles::{OracleKind, Tier};

/// The case's private RNG stream for one fault oracle: the tag keeps the
/// oracles' draws apart from each other and from the other oracles' use
/// of `light_seed`.
fn case_rng(tag: &str, input: &CaseInput) -> XorShiftRng {
    let mut hasher = KeyHasher::new();
    hasher.write_tag(tag);
    hasher.write_u64(input.light_seed);
    XorShiftRng::seed_from_u64(hasher.finish())
}

/// `Some(divergence)` listing every broken check, `None` when all held.
fn divergence_of(oracle: OracleKind, problems: Vec<String>) -> Option<Divergence> {
    (!problems.is_empty()).then(|| Divergence {
        oracle,
        detail: problems.join("; "),
    })
}

/// A plan request's outcome, reduced to what parity compares: the
/// rendered `result`, or why there is none.
type Outcome = Result<String, String>;

fn outcome(answer: Result<PlanAnswer, ClientError>) -> Outcome {
    answer.map(|a| a.result.render()).map_err(|e| e.to_string())
}

/// Direct serve's answer. Its exhaustion is a harness failure: the
/// fault-free reference itself could not answer.
fn direct_outcome(
    client: &mut Client,
    query: QueryKind,
    spec: &ScenarioSpec,
) -> Result<Outcome, ConformanceError> {
    match client.plan(query, spec) {
        Err(ClientError::Exhausted { attempts, last }) => Err(ConformanceError::new(
            "fault oracle: direct serve",
            format!("attempts exhausted ({attempts}): {last}"),
        )),
        answer => Ok(outcome(answer)),
    }
}

/// Lists every position where `got` differs from `want` (the same
/// requests, answered by the side under test).
fn parity(label: &str, want: &[Outcome], got: &[Outcome]) -> Vec<String> {
    want.iter()
        .zip(got)
        .enumerate()
        .filter(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| format!("{label} spec {i}: direct {w:?} vs {g:?}"))
        .collect()
}

// ---------------------------------------------------------------------
// power_faults: a blackout after one commit of the reference chain
// ---------------------------------------------------------------------

/// Simulated length of the fault-free reference run.
const POWER_RUN_MS: f64 = 25.0;
/// Extra simulated time a faulted run gets to catch up after its outage.
const POWER_CATCH_UP_MS: f64 = 60.0;

/// The reference application: a sense → filter → classify chain, the
/// shape the intermittent-computing literature (Alpaca-style tasks)
/// models.
fn power_chain() -> Result<TaskChain, ConformanceError> {
    TaskChain::new(vec![
        Task::new("sense", Cycles::new(120_000.0), 64),
        Task::new("filter", Cycles::new(240_000.0), 128),
        Task::new("classify", Cycles::new(90_000.0), 16),
    ])
    .map_err(|e| ConformanceError::new("power_faults: reference chain", e.to_string()))
}

/// What one run of the chain under `light` observed.
struct PowerRun {
    brownouts: usize,
    events: Vec<CommitEvent>,
}

fn power_run(light: LightProfile, duration_ms: f64) -> Result<PowerRun, ConformanceError> {
    let harness = |e: String| ConformanceError::new("power_faults: simulation", e);
    let config = SystemConfig::paper_sc_system().map_err(|e| harness(e.to_string()))?;
    let mut sim =
        Simulation::new(config, light, Volts::new(1.1)).map_err(|e| harness(e.to_string()))?;
    let mut runtime = IntermittentRuntime::new(
        power_chain()?,
        CheckpointPolicy::EveryTask,
        NvmModel::fram(),
    );
    let mut controller = FixedVoltageController::new(Volts::new(0.6));
    let mut events = Vec::new();
    runtime.run_observed(
        &mut sim,
        &mut controller,
        Seconds::from_milli(duration_ms),
        &mut |e| events.push(*e),
    );
    Ok(PowerRun {
        brownouts: sim.events().brownouts(),
        events,
    })
}

/// The fault-free commit stream under constant full sun, computed once
/// per context.
fn power_reference(ctx: &mut OracleCtx) -> Result<&[CommitEvent], ConformanceError> {
    if ctx.power_reference.is_none() {
        let run = power_run(LightProfile::constant(Irradiance::FULL_SUN), POWER_RUN_MS)?;
        if run.brownouts > 0 || run.events.is_empty() {
            return Err(ConformanceError::new(
                "power_faults: reference run",
                format!(
                    "{} brownouts, {} commits: the reference must commit and never brown out",
                    run.brownouts,
                    run.events.len()
                ),
            ));
        }
        ctx.power_reference = Some(run.events);
    }
    Ok(ctx.power_reference.as_deref().unwrap_or_default())
}

/// The blackout a power case injects.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Blackout {
    /// Index of the reference commit the blackout follows.
    boundary: usize,
    /// Blackout length, ms (15–30: long enough to drain the node).
    len_ms: f64,
}

/// Draws the case's blackout over a reference stream of `commits`.
fn blackout(input: &CaseInput, commits: usize) -> Blackout {
    let mut rng = case_rng("power-faults", input);
    Blackout {
        boundary: rng.below_u32(commits.max(1) as u32) as usize,
        len_ms: rng.range_f64(15.0, 30.0),
    }
}

/// The crash-consistency verdict on a faulted run whose blackout ended
/// at `outage_end`.
fn power_verdict(reference: &[CommitEvent], run: &PowerRun, outage_end: Seconds) -> Vec<String> {
    let mut problems = Vec::new();
    if run.brownouts == 0 {
        problems.push("the blackout browned nothing out".to_string());
    }
    let prefix = run.events.get(..reference.len());
    if prefix.map(digest_events) != Some(digest_events(reference)) {
        problems.push(format!(
            "the faulted stream ({} commits) is not prefix-identical to the reference ({})",
            run.events.len(),
            reference.len()
        ));
    }
    if !run
        .events
        .last()
        .is_some_and(|last| last.at.seconds() > outage_end.seconds())
    {
        problems.push("no commit after the blackout".to_string());
    }
    problems
}

pub(crate) fn power_faults(
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    let reference = power_reference(ctx)?;
    let fault = blackout(input, reference.len());
    let Some(after) = reference.get(fault.boundary) else {
        return Ok(None);
    };
    // The blackout begins just after this commit completes.
    let start = after.at.seconds() + 0.5e-3;
    let end = Seconds::new(start + fault.len_ms * 1e-3);
    let light = LightProfile::with_outages(
        LightProfile::constant(Irradiance::FULL_SUN),
        vec![(Seconds::new(start), end)],
    );
    let run = power_run(light, POWER_RUN_MS + fault.len_ms + POWER_CATCH_UP_MS)?;
    Ok(divergence_of(
        OracleKind::PowerFaults,
        power_verdict(reference, &run, end),
    ))
}

// ---------------------------------------------------------------------
// compute_faults: panics and latency inside the worker pool
// ---------------------------------------------------------------------

/// Jobs per compute case.
const COMPUTE_JOBS: usize = 8;

/// What one pool job is scripted to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobFault {
    /// Compute the expected value.
    None,
    /// Sleep this many milliseconds first, then compute.
    Latency(u64),
    /// Panic instead of computing.
    Panic,
}

/// Draws the case's job script: one job in four panics, one in four
/// stalls for 1–4 ms.
fn job_faults(input: &CaseInput) -> Vec<JobFault> {
    let mut rng = case_rng("compute-faults", input);
    (0..COMPUTE_JOBS)
        .map(|_| match rng.below_u32(4) {
            0 => JobFault::Panic,
            1 => JobFault::Latency(1 + u64::from(rng.below_u32(4))),
            _ => JobFault::None,
        })
        .collect()
}

/// The value a healthy job `slot` of the case keyed `case` must return.
fn job_value(case: u64, slot: u64) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("compute-job");
    hasher.write_u64(case);
    hasher.write_u64(slot);
    hasher.finish()
}

/// The isolation verdict: `Err` exactly at the panicking slots, the
/// right value everywhere else.
fn compute_verdict(
    case: u64,
    faults: &[JobFault],
    outcomes: &[Result<u64, String>],
) -> Vec<String> {
    if faults.len() != outcomes.len() {
        return vec![format!(
            "{} outcomes for {} jobs",
            outcomes.len(),
            faults.len()
        )];
    }
    let mut problems = Vec::new();
    for (slot, (fault, got)) in faults.iter().zip(outcomes).enumerate() {
        let want = job_value(case, slot as u64);
        match (fault, got) {
            (JobFault::Panic, Err(message)) if message.contains("chaos:") => {}
            (JobFault::Panic, other) => {
                problems.push(format!("slot {slot} panicked but came back {other:?}"))
            }
            (_, Ok(value)) if *value == want => {}
            (_, other) => problems.push(format!("slot {slot}: want Ok({want}), got {other:?}")),
        }
    }
    problems
}

pub(crate) fn compute_faults(input: &CaseInput, pool: &WorkerPool) -> Option<Divergence> {
    install_panic_probe();
    let faults = job_faults(input);
    let case = input.light_seed;
    let jobs: Vec<_> = faults
        .iter()
        .enumerate()
        .map(|(slot, &fault)| {
            let slot = slot as u64;
            move || {
                match fault {
                    JobFault::None => {}
                    JobFault::Latency(ms) => {
                        // hems-lint: allow(timing, reason = "the injected latency fault; no result depends on it")
                        thread::sleep(Duration::from_millis(ms));
                    }
                    JobFault::Panic => {
                        // hems-lint: allow(panic, reason = "the injected fault under test, caught by run_jobs_result")
                        panic!("chaos: injected compute fault in slot {slot}");
                    }
                }
                job_value(case, slot)
            }
        })
        .collect();
    let outcomes: Vec<Result<u64, String>> = pool
        .run_jobs_result(jobs)
        .into_iter()
        .map(|r| r.map_err(|e| e.message().to_string()))
        .collect();
    divergence_of(
        OracleKind::ComputeFaults,
        compute_verdict(case, &faults, &outcomes),
    )
}

// ---------------------------------------------------------------------
// The serve panic probe
// ---------------------------------------------------------------------

/// Panics observed on `hems-serve-*` threads since process start.
static SERVE_PANICS: AtomicU64 = AtomicU64::new(0);
static PROBE: OnceLock<()> = OnceLock::new();

/// Installs the process-wide panic probe (idempotent). Counts panics on
/// server threads; intentionally injected faults (payloads tagged
/// `chaos:`) skip the default backtrace printer to keep output clean.
/// The worker pool's threads are named `hems-pool-*`, so panics
/// injected into jobs do not count — only a genuine server-side crash
/// does.
fn install_panic_probe() {
    PROBE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // hems-lint: allow(taint, reason = "thread *name* only, to classify hems-serve-* panics into a counter; names are fixed strings, no os id reaches report bytes")
            let current = thread::current();
            let name = current.name().unwrap_or("");
            if name.starts_with("hems-serve-") {
                SERVE_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------
// The chaos proxy
// ---------------------------------------------------------------------

/// What the proxy does to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnFault {
    /// Relay every frame untouched.
    Pass,
    /// Forward only a prefix of the first request line, then close both
    /// sides — the server sees a frame torn mid-byte.
    TearRequest,
    /// Relay the request, then forward only a prefix of the response —
    /// the client sees a frame torn mid-byte.
    TearResponse,
    /// Relay frames but sit on each response this many ms first.
    Delay(u64),
}

/// Reads one line, polling through read-deadline wakeups until `stop`.
/// `Ok(None)` is EOF.
fn read_line_patient(
    reader: &mut BufReader<TcpStream>,
    stop: &AtomicBool,
) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(line)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Partial bytes stay buffered in `line`; keep waiting
                // unless the proxy is shutting down.
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One proxied connection, relayed frame by frame on a single thread
/// (the protocol is one request in flight per connection).
fn relay(client: TcpStream, upstream_addr: SocketAddr, fault: ConnFault, stop: &AtomicBool) {
    let relay_frames = || -> std::io::Result<()> {
        let upstream = TcpStream::connect(upstream_addr)?;
        let poll = Some(Duration::from_millis(50));
        client.set_read_timeout(poll)?;
        upstream.set_read_timeout(poll)?;
        let mut from_client = BufReader::new(client.try_clone()?);
        let mut from_upstream = BufReader::new(upstream.try_clone()?);
        let mut to_client = client;
        let mut to_upstream = upstream;
        loop {
            let Some(request) = read_line_patient(&mut from_client, stop)? else {
                return Ok(());
            };
            if fault == ConnFault::TearRequest {
                let cut = request.len().saturating_sub(request.len() / 3).max(1);
                to_upstream.write_all(request.as_bytes().get(..cut).unwrap_or(b"{"))?;
                // Close both directions: the server sees EOF mid-frame.
                return Ok(());
            }
            to_upstream.write_all(request.as_bytes())?;
            let Some(response) = read_line_patient(&mut from_upstream, stop)? else {
                return Ok(());
            };
            if fault == ConnFault::TearResponse {
                let cut = (response.len() / 2).max(1);
                to_client.write_all(response.as_bytes().get(..cut).unwrap_or(b"{"))?;
                return Ok(());
            }
            if let ConnFault::Delay(ms) = fault {
                // hems-lint: allow(timing, reason = "the injected slow-link fault; answers are compared by content only")
                thread::sleep(Duration::from_millis(ms));
            }
            to_client.write_all(response.as_bytes())?;
        }
    };
    // A relay error just ends this connection; the client retries.
    let _ = relay_frames();
}

/// A TCP proxy that applies one [`ConnFault`] to each connection it
/// accepts: the armed fault to the next connection, its default to the
/// rest. Its acceptor blocks in `accept` behind an [`AcceptGate`], so a
/// connection is relayed the moment it arrives.
struct ChaosProxy {
    addr: SocketAddr,
    gate: Arc<AcceptGate>,
    stop: Arc<AtomicBool>,
    armed: Arc<Mutex<Option<ConnFault>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    fn start(upstream: SocketAddr, default: ConnFault) -> Result<ChaosProxy, ConformanceError> {
        let harness = |e: std::io::Error| ConformanceError::new("chaos proxy", e.to_string());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(harness)?;
        let addr = listener.local_addr().map_err(harness)?;
        let gate = Arc::new(AcceptGate::new(addr));
        let stop = Arc::new(AtomicBool::new(false));
        let armed = Arc::new(Mutex::new(None));
        let acceptor = {
            let (gate, stop, armed) = (Arc::clone(&gate), Arc::clone(&stop), Arc::clone(&armed));
            thread::Builder::new()
                .name("hems-chaos-proxy".to_string())
                .spawn(move || {
                    gate.run(listener, |conn| {
                        let fault = armed
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .unwrap_or(default);
                        let stop = Arc::clone(&stop);
                        let _ = thread::Builder::new()
                            .name("hems-chaos-relay".to_string())
                            .spawn(move || relay(conn, upstream, fault, &stop));
                    })
                })
                .map_err(harness)?
        };
        Ok(ChaosProxy {
            addr,
            gate,
            stop,
            armed,
            acceptor: Some(acceptor),
        })
    }

    /// Applies `fault` to the next accepted connection only.
    fn arm(&self, fault: ConnFault) {
        *self.armed.lock().unwrap_or_else(PoisonError::into_inner) = Some(fault);
    }
}

impl Drop for ChaosProxy {
    /// Stops accepting, joins the acceptor and tells open relays to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.gate.close();
        if let Some(acceptor) = self.acceptor.take() {
            accept::await_exit(&acceptor, &self.gate);
            let _ = acceptor.join();
        }
    }
}

// ---------------------------------------------------------------------
// net_faults: torn frames, a faulted proxy hop, one direct attack
// ---------------------------------------------------------------------

/// Read deadline of the fault-injecting serve: short, so a slow loris
/// is reaped within its case.
const NET_READ_DEADLINE: Duration = Duration::from_millis(100);
/// One case in this many draws the slow loris, which costs a read
/// deadline; the other three attacks share the rest.
const LORIS_ONE_IN: u32 = 40;
/// The line that closes a case's raw frames: answered inline, so its
/// reply proves the connection survived every frame before it.
const FRAMES_END: &str = "{\"id\":\"frames-end\",\"query\":\"stats\"}\n";

/// A direct attack on the fault-injecting serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    /// Half a request, then hang up.
    TornFrameClose,
    /// A torn request with a newline: answered with an error, and the
    /// connection must answer the next request.
    TornFrameNewline,
    /// A cached plan request, then hang up before reading the answer.
    DisconnectMidResponse,
    /// A few bytes, then silence: the read deadline must reap it.
    SlowLoris,
}

/// Everything a net case draws.
struct NetDraw {
    /// The fault on the proxied plan's first connection.
    fault: ConnFault,
    /// The proxied plan.
    query: QueryKind,
    spec: ScenarioSpec,
    /// The direct attack.
    attack: Attack,
    jitter_seed: u64,
}

/// Draws the case's proxy fault, proxied plan and attack.
fn net_draw(input: &CaseInput) -> NetDraw {
    let mut rng = case_rng("net-faults", input);
    let fault = match rng.below_u32(3) {
        0 => ConnFault::TearRequest,
        1 => ConnFault::TearResponse,
        _ => ConnFault::Delay(1 + u64::from(rng.below_u32(8))),
    };
    let pick = rng.below_u32(3) as usize % input.specs.len().max(1);
    let spec = input.specs.get(pick).cloned();
    let spec = spec.unwrap_or_else(|| ScenarioSpec::baseline(0.5));
    let attack = if rng.below_u32(LORIS_ONE_IN) == 0 {
        Attack::SlowLoris
    } else {
        match rng.below_u32(3) {
            0 => Attack::TornFrameClose,
            1 => Attack::TornFrameNewline,
            _ => Attack::DisconnectMidResponse,
        }
    };
    NetDraw {
        fault,
        query: query_for("net-faults", &spec),
        spec,
        attack,
        jitter_seed: rng.next_u64(),
    }
}

/// The fault-injecting serve and the proxy in front of it. Field order
/// is drop order: the proxy goes before the server it fronts.
pub(crate) struct NetHarness {
    proxy: ChaosProxy,
    server: ServerHandle,
}

impl NetHarness {
    fn start() -> Result<NetHarness, ConformanceError> {
        let server = serve(
            "127.0.0.1:0",
            ServeConfig {
                threads: Some(2),
                cache_capacity: 256,
                max_queue: 64,
                max_batch: 8,
                read_timeout: Some(NET_READ_DEADLINE),
                inject_panic_one_in: Some(3),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| ConformanceError::new("net_faults: serve", e.to_string()))?;
        let proxy = ChaosProxy::start(server.addr(), ConnFault::Pass)?;
        Ok(NetHarness { proxy, server })
    }
}

/// What one net case observed.
struct NetObservation {
    /// The raw frames' connection answered the closing `stats` line.
    frames_survived: bool,
    direct: Outcome,
    proxied: Outcome,
    attack: Attack,
    attack_survived: bool,
    serve_panics: u64,
}

fn net_verdict(obs: &NetObservation) -> Vec<String> {
    let mut problems = Vec::new();
    if obs.proxied != obs.direct {
        let (direct, proxied) = (&obs.direct, &obs.proxied);
        problems.push(format!("proxied: direct {direct:?} vs {proxied:?}"));
    }
    if !obs.frames_survived {
        problems.push("the connection died on the case's raw frames".to_string());
    }
    if !obs.attack_survived {
        problems.push(format!("attack {:?} was not survived", obs.attack));
    }
    if obs.serve_panics > 0 {
        problems.push(format!(
            "{} panic(s) on hems-serve threads",
            obs.serve_panics
        ));
    }
    problems
}

/// Writes the frames raw, one per line, then [`FRAMES_END`]; `true` once
/// the closing line is answered.
fn send_frames(addr: SocketAddr, frames: &[String]) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut bytes = String::new();
    for frame in frames {
        bytes.push_str(frame);
        bytes.push('\n');
    }
    bytes.push_str(FRAMES_END);
    stream.write_all(bytes.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        let reply = json::parse(&line).unwrap_or(Value::Null);
        if reply.get("id").and_then(Value::as_str) == Some("frames-end") {
            return Ok(reply.get("status").and_then(Value::as_str) == Some("ok"));
        }
        line.clear();
    }
    Ok(false)
}

fn status_of(line: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get("status")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Runs one direct attack; `true` when the server behaved.
fn attack(addr: SocketAddr, attack: Attack, query: QueryKind, spec: &ScenarioSpec) -> bool {
    let strike = || -> std::io::Result<bool> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        match attack {
            Attack::TornFrameClose => {
                s.write_all(br#"{"id":1,"query":"me"#)?;
                Ok(true)
            }
            Attack::TornFrameNewline => {
                s.write_all(b"{\"id\":2,\"query\":\"mep\",\"scenario\":{\"irr\n")?;
                let mut reader = BufReader::new(s.try_clone()?);
                let mut first = String::new();
                reader.read_line(&mut first)?;
                s.write_all(b"{\"id\":3,\"query\":\"stats\"}\n")?;
                let mut second = String::new();
                reader.read_line(&mut second)?;
                Ok(status_of(&first).as_deref() == Some("error")
                    && status_of(&second).as_deref() == Some("ok"))
            }
            Attack::DisconnectMidResponse => {
                let mut line = Request::render_line(4, query, Some(spec));
                line.push('\n');
                s.write_all(line.as_bytes())?;
                // Dropped here: the answer hits a closed socket.
                Ok(true)
            }
            Attack::SlowLoris => {
                s.write_all(b"{\"id\":5,")?;
                s.set_read_timeout(Some(NET_READ_DEADLINE * 2 + Duration::from_millis(100)))?;
                let mut buf = [0u8; 32];
                // Reaped: EOF, or a reset on some stacks. A timeout means
                // the socket is still open.
                Ok(match s.read(&mut buf) {
                    Ok(n) => n == 0,
                    Err(e) => !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                })
            }
        }
    };
    strike().unwrap_or(false)
}

pub(crate) fn net_faults(
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    install_panic_probe();
    let panics_before = SERVE_PANICS.load(Ordering::SeqCst);
    let draw = net_draw(input);
    let direct = direct_outcome(ctx.direct()?, draw.query, &draw.spec)?;
    if ctx.net.is_none() {
        ctx.net = Some(NetHarness::start()?);
    }
    let Some(net) = ctx.net.as_ref() else {
        return Ok(None);
    };
    let server = net.server.addr();
    let frames_survived = send_frames(server, &input.frames).unwrap_or(false);
    net.proxy.arm(draw.fault);
    let mut client = Client::new(
        net.proxy.addr,
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            request_timeout: Duration::from_secs(5),
            jitter_seed: draw.jitter_seed,
        },
    );
    let proxied = outcome(client.plan(draw.query, &draw.spec));
    drop(client);
    let attack_survived = attack(server, draw.attack, draw.query, &draw.spec);
    let obs = NetObservation {
        frames_survived,
        direct,
        proxied,
        attack: draw.attack,
        attack_survived,
        serve_panics: SERVE_PANICS.load(Ordering::SeqCst) - panics_before,
    };
    Ok(divergence_of(OracleKind::NetFaults, net_verdict(&obs)))
}

// ---------------------------------------------------------------------
// router_faults: a backend crash or a slow backend under routed load
// ---------------------------------------------------------------------

/// Shards in the fault tier.
const SHARDS: usize = 3;
/// One case in this many slows a backend down instead of crashing it.
const SLOW_ONE_IN: u32 = 16;
/// How long a repointed slot gets to report `healthy` again.
const HEALTHY_WITHIN: Duration = Duration::from_secs(5);

/// The fault episode a router case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Episode {
    /// Shut the victim down, restart it on a fresh port, repoint its slot.
    Crash { victim: usize },
    /// Put the victim behind a proxy that delays every answer.
    Slow { victim: usize, delay_ms: u64 },
}

/// Draws the case's episode.
fn episode(input: &CaseInput) -> Episode {
    let mut rng = case_rng("router-faults", input);
    let victim = rng.below_u32(SHARDS as u32) as usize;
    if rng.below_u32(SLOW_ONE_IN) == 0 {
        Episode::Slow {
            victim,
            delay_ms: 2 + u64::from(rng.below_u32(8)),
        }
    } else {
        Episode::Crash { victim }
    }
}

/// The 3-shard tier the router cases fault: 20 ms health probes, ejection
/// after two failures, rejoin after one success.
fn fault_tier() -> Result<Tier, ConformanceError> {
    start_tier(
        SHARDS,
        RouterConfig {
            probe_interval: Duration::from_millis(20),
            health: HealthPolicy {
                eject_after: 2,
                rejoin_after: 1,
            },
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_secs(2),
            ..RouterConfig::default()
        },
    )
}

/// What one router case observed.
struct RouterObservation {
    direct: Vec<Outcome>,
    during: Vec<Outcome>,
    after: Vec<Outcome>,
    healthy_after: bool,
}

fn router_verdict(episode: Episode, obs: &RouterObservation) -> Vec<String> {
    let mut problems = parity("during the episode", &obs.direct, &obs.during);
    problems.extend(parity("after the episode", &obs.direct, &obs.after));
    if !obs.healthy_after {
        problems.push(format!(
            "{episode:?}: the slot is not healthy after repointing"
        ));
    }
    problems
}

fn replay(client: &mut Client, plans: &[(QueryKind, ScenarioSpec)]) -> Vec<Outcome> {
    plans
        .iter()
        .map(|(query, spec)| outcome(client.plan(*query, spec)))
        .collect()
}

/// Polls (bounded) until shard slot `shard` reports `healthy`.
fn await_healthy(router: &RouterHandle, shard: usize) -> bool {
    for _ in 0..HEALTHY_WITHIN.as_millis() / 5 {
        if router.shard_state(shard) == Some("healthy") {
            return true;
        }
        // hems-lint: allow(timing, reason = "bounded wait for the router's probe to rejoin a slot; the verdict reads only the state")
        thread::sleep(Duration::from_millis(5));
    }
    router.shard_state(shard) == Some("healthy")
}

pub(crate) fn router_faults(
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    let plans: Vec<(QueryKind, ScenarioSpec)> = input
        .specs
        .iter()
        .map(|spec| (query_for("router-faults", spec), spec.clone()))
        .collect();
    let direct = {
        let client = ctx.direct()?;
        plans
            .iter()
            .map(|(query, spec)| direct_outcome(client, *query, spec))
            .collect::<Result<Vec<_>, _>>()?
    };
    if ctx.fault_tier.is_none() {
        ctx.fault_tier = Some(fault_tier()?);
    }
    let Some(tier) = ctx.fault_tier.as_mut() else {
        return Ok(None);
    };
    let episode = episode(input);
    let (during, healthy_after) = match episode {
        Episode::Crash { victim } => {
            if let Some(backend) = tier.backends.get_mut(victim) {
                backend.shutdown();
            }
            let during = replay(&mut tier.client, &plans);
            let fresh = start_shard(victim)?;
            let repointed = tier.router.set_backend(victim, fresh.addr());
            if let Some(slot) = tier.backends.get_mut(victim) {
                *slot = fresh;
            }
            (during, repointed && await_healthy(&tier.router, victim))
        }
        Episode::Slow { victim, delay_ms } => {
            let Some(upstream) = tier.backends.get(victim).map(ServerHandle::addr) else {
                return Ok(None);
            };
            let proxy = ChaosProxy::start(upstream, ConnFault::Delay(delay_ms))?;
            let through_proxy = tier.router.set_backend(victim, proxy.addr);
            let during = replay(&mut tier.client, &plans);
            let restored = tier.router.set_backend(victim, upstream);
            let healthy = through_proxy && restored && await_healthy(&tier.router, victim);
            (during, healthy)
        }
    };
    let observed = RouterObservation {
        direct,
        during,
        after: replay(&mut tier.client, &plans),
        healthy_after,
    };
    Ok(divergence_of(
        OracleKind::RouterFaults,
        router_verdict(episode, &observed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::case_seeds;
    use hems_serve::planner::PlanJob;

    fn commit(position: u64, at_ms: f64) -> CommitEvent {
        CommitEvent {
            at: Seconds::from_milli(at_ms),
            iteration: position / 3,
            task: (position % 3) as usize,
        }
    }

    /// A faulted run that browned out, caught up past the reference and
    /// kept committing after a blackout ending at 10 ms.
    fn clean_power_run(reference: &[CommitEvent]) -> PowerRun {
        let mut events = reference.to_vec();
        events.extend((6..9).map(|p| commit(p, 20.0 + p as f64)));
        PowerRun {
            brownouts: 1,
            events,
        }
    }

    #[test]
    fn power_verdict_flags_a_dropped_or_repeated_commit_once() {
        let reference: Vec<CommitEvent> = (0..6).map(|p| commit(p, p as f64)).collect();
        let end = Seconds::from_milli(10.0);
        assert!(power_verdict(&reference, &clean_power_run(&reference), end).is_empty());

        let mut dropped = clean_power_run(&reference);
        dropped.events.remove(2);
        let problems = power_verdict(&reference, &dropped, end);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("prefix-identical"), "{problems:?}");

        let mut repeated = clean_power_run(&reference);
        repeated.events.insert(3, commit(2, 2.5));
        let problems = power_verdict(&reference, &repeated, end);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("prefix-identical"), "{problems:?}");
    }

    #[test]
    fn compute_verdict_flags_a_leaked_panic_or_a_wrong_value_once() {
        let faults = [
            JobFault::None,
            JobFault::Panic,
            JobFault::Latency(2),
            JobFault::None,
        ];
        let clean: Vec<Result<u64, String>> = faults
            .iter()
            .enumerate()
            .map(|(slot, fault)| match fault {
                JobFault::Panic => Err("chaos: injected compute fault".to_string()),
                _ => Ok(job_value(9, slot as u64)),
            })
            .collect();
        assert!(compute_verdict(9, &faults, &clean).is_empty());

        let mut leaked = clean.clone();
        leaked[1] = Ok(job_value(9, 1));
        let problems = compute_verdict(9, &faults, &leaked);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("slot 1 panicked"), "{problems:?}");

        let mut wrong = clean;
        wrong[2] = Ok(job_value(9, 3));
        let problems = compute_verdict(9, &faults, &wrong);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("slot 2"), "{problems:?}");
    }

    fn clean_net_observation() -> NetObservation {
        NetObservation {
            frames_survived: true,
            direct: Ok("{\"vdd\":0.5}".to_string()),
            proxied: Ok("{\"vdd\":0.5}".to_string()),
            attack: Attack::SlowLoris,
            attack_survived: true,
            serve_panics: 0,
        }
    }

    #[test]
    fn net_verdict_flags_a_one_byte_answer_or_an_open_loris_once() {
        assert!(net_verdict(&clean_net_observation()).is_empty());

        let mut off_by_one = clean_net_observation();
        off_by_one.proxied = Ok("{\"vdd\":0.6}".to_string());
        let problems = net_verdict(&off_by_one);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("proxied"), "{problems:?}");

        let mut open_loris = clean_net_observation();
        open_loris.attack_survived = false;
        let problems = net_verdict(&open_loris);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("SlowLoris"), "{problems:?}");
    }

    fn clean_router_observation() -> RouterObservation {
        let answers = vec![Ok("{\"a\":1}".to_string()), Err("rejected".to_string())];
        RouterObservation {
            direct: answers.clone(),
            during: answers.clone(),
            after: answers,
            healthy_after: true,
        }
    }

    #[test]
    fn router_verdict_flags_a_wrong_routed_answer_or_an_unhealthy_slot_once() {
        let crash = Episode::Crash { victim: 1 };
        assert!(router_verdict(crash, &clean_router_observation()).is_empty());

        let mut wrong = clean_router_observation();
        wrong.during[0] = Ok("{\"a\":2}".to_string());
        let problems = router_verdict(crash, &wrong);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("during the episode spec 0"),
            "{problems:?}"
        );

        let mut unhealthy = clean_router_observation();
        unhealthy.healthy_after = false;
        let problems = router_verdict(crash, &unhealthy);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("not healthy"), "{problems:?}");
    }

    /// The fault classes the verify stage's `--fuzz --seed 7 --cases 500`
    /// run draws, evaluated from the case draws alone: every class fires
    /// at least as often as in the seed-7 smoke campaign this plane
    /// replaced.
    #[test]
    fn the_verify_seed_draws_every_fault_class() {
        let inputs = |kind| {
            case_seeds(7, kind)
                .take(500)
                .map(CaseInput::generate)
                .collect::<Vec<_>>()
        };
        let power = inputs(OracleKind::PowerFaults);
        let brownouts = power
            .iter()
            .map(|input| blackout(input, 12))
            .filter(|b| b.boundary < 12 && (15.0..30.0).contains(&b.len_ms))
            .count();
        let pool_panics: usize = inputs(OracleKind::ComputeFaults)
            .iter()
            .map(|input| {
                job_faults(input)
                    .iter()
                    .filter(|f| **f == JobFault::Panic)
                    .count()
            })
            .sum();
        let net: Vec<NetDraw> = inputs(OracleKind::NetFaults).iter().map(net_draw).collect();
        let proxied = |pick: fn(&ConnFault) -> bool| net.iter().filter(|d| pick(&d.fault)).count();
        let attacks = |attack| net.iter().filter(|d| d.attack == attack).count();
        let jobs = net
            .iter()
            .filter(|d| PlanJob::build(d.query, d.spec.clone()).is_ok())
            .count();
        let episodes: Vec<Episode> = inputs(OracleKind::RouterFaults)
            .iter()
            .map(episode)
            .collect();
        let crashes = episodes
            .iter()
            .filter(|e| matches!(e, Episode::Crash { .. }))
            .count();
        let counts = [
            ("power brownout", brownouts, 3),
            ("compute pool panic", pool_panics, 4),
            (
                "proxy tear_request",
                proxied(|f| *f == ConnFault::TearRequest),
                1,
            ),
            (
                "proxy tear_response",
                proxied(|f| *f == ConnFault::TearResponse),
                1,
            ),
            (
                "proxy delay",
                proxied(|f| matches!(f, ConnFault::Delay(_))),
                1,
            ),
            // One in three dispatched solves panics on the net serve.
            ("serve worker panic (solves / 3)", jobs / 3, 5),
            (
                "attack torn_frame_close",
                attacks(Attack::TornFrameClose),
                1,
            ),
            (
                "attack torn_frame_newline",
                attacks(Attack::TornFrameNewline),
                1,
            ),
            (
                "attack disconnect_mid_response",
                attacks(Attack::DisconnectMidResponse),
                1,
            ),
            ("attack slow_loris", attacks(Attack::SlowLoris), 1),
            ("router crash", crashes, 1),
            ("router slow_backend", episodes.len() - crashes, 1),
        ];
        for (class, drawn, floor) in counts {
            eprintln!("seed 7 x 500: {class}: {drawn}");
            assert!(drawn >= floor, "{class}: {drawn} < {floor}");
        }
    }
}
