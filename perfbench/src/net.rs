//! The benchmark's own load generator: an open-loop pacer over one
//! persistent connection, a closed-loop connect-per-request client, and
//! a round-trip probe. Each request is timed from when it was due, so a
//! stall counts against every request queued behind it, and the pacer
//! records how late it sent each one.

use crate::gen::PlanKey;
use crate::stats::fnv1a;
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// How long the receiver waits for the next response before it gives up
/// and counts everything still missing as failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// Most requests in flight in an unpaced pass: enough to keep the server
/// busy, few enough that a pass ends without a long drain.
const UNPACED_WINDOW: usize = 128;
/// The pacer sleeps until this close to a send time, then spins.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// An unknown query: the server answers it with an error line at once.
pub const READY_LINE: &[u8] = b"{\"id\":0,\"query\":\"ready\"}\n";

/// Written after a pass's last request; its error answer carries
/// [`END_ID`].
const END_LINE: &[u8] = b"{\"id\":\"end\",\"query\":\"ready\"}\n";
const END_ID: &str = "{\"id\":\"end\"";

/// One parsed response line.
pub struct Response<'a> {
    pub id: usize,
    pub ok: bool,
    pub cached: bool,
    /// The `result` object's bytes (the error text when not ok).
    pub result: Cow<'a, str>,
}

/// Parses a response to a numbered request. Fast path: the fixed field
/// order the server renders; anything else goes through the JSON parser.
pub fn parse_response(line: &str) -> Option<Response<'_>> {
    let line = line.trim_end();
    if let Some(rest) = line.strip_prefix("{\"id\":") {
        let comma = rest.find(',')?;
        if let Ok(id) = rest[..comma].parse::<usize>() {
            let tail = &rest[comma..];
            for (prefix, cached) in [
                (",\"status\":\"ok\",\"cached\":true,\"result\":", true),
                (",\"status\":\"ok\",\"cached\":false,\"result\":", false),
            ] {
                if let Some(result) = tail.strip_prefix(prefix).and_then(|r| r.strip_suffix('}')) {
                    return Some(Response {
                        id,
                        ok: true,
                        cached,
                        result: Cow::Borrowed(result),
                    });
                }
            }
        }
    }
    let value = hems_serve::json::parse(line).ok()?;
    let id = value.get("id")?.as_f64()?;
    let ok = value.get("status")?.as_str()? == "ok";
    let cached = value
        .get("cached")
        .and_then(|c| c.as_bool())
        .unwrap_or(false);
    let result = match (ok, value.get("result"), value.get("error")) {
        (true, Some(result), _) => result.render(),
        (false, _, Some(error)) => error.render(),
        _ => String::new(),
    };
    Some(Response {
        id: id as usize,
        ok,
        cached,
        result: Cow::Owned(result),
    })
}

/// What one pass of requests produced, indexed by request id.
#[derive(Debug, Default)]
pub struct Pass {
    /// Due time to response, ns (`None`: no ok response).
    pub latency_ns: Vec<Option<u64>>,
    /// Actual send time minus due time, ns.
    pub lag_ns: Vec<u64>,
    /// FNV-1a of each ok response's result bytes.
    pub result_fnv: Vec<u64>,
    pub cached: Vec<bool>,
    /// Requests without an ok response (errors, refusals, transport).
    pub failed: usize,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// First due time to last response.
    pub elapsed: Duration,
}

impl Pass {
    fn new(n: usize) -> Pass {
        Pass {
            latency_ns: vec![None; n],
            lag_ns: vec![0; n],
            result_fnv: vec![0; n],
            cached: vec![false; n],
            ..Pass::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }

    /// Ok responses per second over the pass.
    pub fn achieved_hz(&self) -> f64 {
        let ok = self.latency_ns.iter().flatten().count();
        ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Latencies of ok responses, µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.latency_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RECV_TIMEOUT))?;
    Ok(stream)
}

/// A line reader that, once set to spin, polls a non-blocking socket
/// instead of sleeping in `read`, so its core never idles while answers
/// are due.
struct Lines {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Lines {
    fn new(stream: TcpStream) -> Lines {
        Lines {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// The next line (`None` at end of stream).
    fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut waited = Instant::now();
        loop {
            if let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&self.buf[self.start..self.start + nl]).into_owned();
                self.start += nl + 1;
                return Ok(Some(line));
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(k) => {
                    self.buf.extend_from_slice(&chunk[..k]);
                    waited = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if waited.elapsed() > RECV_TIMEOUT {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "no answer"));
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// How the client threads wait between events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Both client threads busy-poll: on a virtual host an idle core is
    /// slow to wake, which would add its wake-up to every short request.
    Spin,
    /// Both sleep (the pacer spins only the last [`SPIN_WINDOW`]): for
    /// solve-bound traffic, where spinning would take a core from the
    /// solver.
    Sleep,
}

/// Waits until `due`.
fn wait_until(due: Instant, pacing: Pacing) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if pacing == Pacing::Sleep && left > SPIN_WINDOW {
            thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `keys` (request `i` carries id `i`) over one connection, one
/// every `1 / rate_hz` seconds (when `rate_hz` is infinite: as fast as
/// the server answers, at most [`UNPACED_WINDOW`] in flight) until all
/// are sent or `budget` has passed, while a second thread reads the
/// responses. Two client threads, one connection. After its last
/// request the sender writes [`END_LINE`], so the reader learns how many
/// answers to wait for even when some are still being solved.
pub fn open_loop(
    addr: SocketAddr,
    keys: &[PlanKey],
    rate_hz: f64,
    budget: Option<Duration>,
    pacing: Pacing,
) -> io::Result<Pass> {
    let n = keys.len();
    let mut stream = connect(addr)?;
    let mut reader = Lines::new(stream.try_clone()?);
    // One untimed round trip first, so the server has accepted the
    // connection before the schedule starts: accept latency belongs to
    // the connect-per-request workload, not to persistent connections.
    stream.write_all(READY_LINE)?;
    reader.next_line()?;
    reader.stream.set_nonblocking(pacing == Pacing::Spin)?;
    let interval = if rate_hz.is_finite() {
        Duration::from_secs_f64(1.0 / rate_hz)
    } else {
        Duration::ZERO
    };
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + interval * i as u32;
    let sent = AtomicUsize::new(usize::MAX);
    let answered_so_far = AtomicUsize::new(0);

    thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut pass = Pass::new(n);
            let mut answered = 0usize;
            let mut last = start;
            while answered < sent.load(Ordering::SeqCst).min(n) {
                let line = match reader.next_line() {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    Err(e) => {
                        pass.fail(format!("transport: {e}"));
                        break;
                    }
                };
                if line.starts_with(END_ID) {
                    continue;
                }
                let now = Instant::now();
                last = now;
                answered += 1;
                answered_so_far.store(answered, Ordering::Release);
                match parse_response(&line) {
                    Some(r) if r.id < n && pass.latency_ns[r.id].is_none() => {
                        if r.ok {
                            pass.latency_ns[r.id] =
                                Some(now.saturating_duration_since(due(r.id)).as_nanos() as u64);
                            pass.result_fnv[r.id] = fnv1a(r.result.as_bytes());
                            pass.cached[r.id] = r.cached;
                        } else {
                            pass.fail(format!("request {}: {}", r.id, line.trim_end()));
                        }
                    }
                    _ => pass.fail(format!("unmatched response: {}", line.trim_end())),
                }
            }
            let missing = sent.load(Ordering::SeqCst).min(n).saturating_sub(answered);
            for _ in 0..missing {
                pass.fail("no response".to_string());
            }
            pass.elapsed = last.saturating_duration_since(start);
            pass
        });
        let mut writer = stream;
        let mut lag_ns = Vec::with_capacity(n);
        for (i, key) in keys.iter().enumerate() {
            let due_i = due(i);
            if budget.is_some_and(|b| due_i.max(Instant::now()) > start + b) {
                break;
            }
            let line = key.line(i);
            if !rate_hz.is_finite() {
                while i - answered_so_far.load(Ordering::Acquire) >= UNPACED_WINDOW {
                    thread::sleep(Duration::from_micros(50));
                }
            }
            wait_until(due_i, pacing);
            lag_ns.push(Instant::now().saturating_duration_since(due_i).as_nanos() as u64);
            if writer.write_all(&line).is_err() {
                break;
            }
        }
        sent.store(lag_ns.len(), Ordering::SeqCst);
        let _ = writer.write_all(END_LINE);
        let mut pass = receiver.join().expect("receiver thread panicked");
        let _ = writer.shutdown(std::net::Shutdown::Both);
        pass.latency_ns.truncate(lag_ns.len());
        pass.result_fnv.truncate(lag_ns.len());
        pass.cached.truncate(lag_ns.len());
        pass.lag_ns = lag_ns;
        Ok(pass)
    })
}

/// One connect-per-request round trip, ns: (connect, connected → first
/// response line, total). The response line is returned for checking.
pub fn fresh_round_trip(addr: SocketAddr, line: &[u8]) -> io::Result<(u64, u64, u64, String)> {
    let t0 = Instant::now();
    let mut stream = connect(addr)?;
    let t1 = Instant::now();
    stream.write_all(line)?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    let t2 = Instant::now();
    let ns = |d: Duration| d.as_nanos() as u64;
    Ok((ns(t1 - t0), ns(t2 - t1), ns(t2 - t0), response))
}

/// Closed-loop round trips of `line` on one persistent connection, µs.
pub fn round_trips(addr: SocketAddr, line: &[u8], count: usize) -> io::Result<Vec<f64>> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut response = String::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        stream.write_all(line)?;
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        out.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_and_fallback_parses_agree() {
        let fast = r#"{"id":12,"status":"ok","cached":true,"result":{"a":1.5}}"#;
        let r = parse_response(fast).unwrap();
        assert!(matches!(r.result, Cow::Borrowed(_)));
        assert_eq!(
            (r.id, r.ok, r.cached, &*r.result),
            (12, true, true, r#"{"a":1.5}"#)
        );
        let reordered = r#"{"status":"ok","id":12,"result":{"a":1.5},"cached":true}"#;
        let r = parse_response(reordered).unwrap();
        assert_eq!(
            (r.id, r.ok, r.cached, &*r.result),
            (12, true, true, r#"{"a":1.5}"#)
        );
        let err = parse_response(r#"{"id":3,"status":"error","error":"no"}"#).unwrap();
        assert!(!err.ok);
        assert!(parse_response("garbage").is_none());
    }
}
