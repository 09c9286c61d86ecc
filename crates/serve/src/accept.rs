//! The blocking acceptor shared by the server and the router front tier.
//!
//! An acceptor thread sits in a blocking `accept`, so a fresh connection
//! is handed to its handler as soon as the kernel completes the
//! handshake. Shutdown needs that thread to notice, and a thread blocked
//! in `accept` only wakes for a connection. [`AcceptGate`] pairs the
//! accepting flag with the listener's address: [`AcceptGate::close`]
//! clears the flag and makes one loopback connect to the listener, and
//! the acceptor re-checks the flag after every `accept`, so the wake
//! connection (or any connection racing it) is dropped and the loop
//! returns, closing the listener. [`await_exit`] repeats the wake while
//! the acceptor still runs, so a wake connect that fails (out of file
//! descriptors, a full backlog) cannot hang shutdown.

use hems_obs::clock::monotonic_ns;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Connect deadline for one shutdown wake. A loopback connect either
/// completes or is refused at once; the deadline only matters when the
/// backlog is full and the SYN is dropped.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);
/// How long [`await_exit`] waits for the acceptor to exit before it
/// sends another wake.
const WAKE_RETRY: Duration = Duration::from_millis(200);
/// First step of the accept-error backoff.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
/// Cap for the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// A listener's accepting flag plus the address that wakes its acceptor.
#[derive(Debug)]
pub struct AcceptGate {
    accepting: AtomicBool,
    addr: SocketAddr,
}

impl AcceptGate {
    /// An open gate for a listener bound to `addr`.
    pub fn new(addr: SocketAddr) -> AcceptGate {
        AcceptGate {
            accepting: AtomicBool::new(true),
            addr,
        }
    }

    /// `true` until [`AcceptGate::close`] is first called.
    pub fn is_open(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    /// Stops accepting. Only the call that flips the flag wakes the
    /// acceptor; later calls do nothing. Callers must not hold a lock:
    /// the wake is a blocking connect.
    pub fn close(&self) {
        if self.accepting.swap(false, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// One loopback connect to the listener, so a blocked `accept`
    /// returns and the acceptor sees the cleared flag. An unspecified
    /// bind address (`0.0.0.0`, `::`) is reached through loopback.
    fn wake(&self) {
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        // The connection is dropped at once: the acceptor only needs
        // `accept` to return.
        let _ = TcpStream::connect_timeout(&target, WAKE_TIMEOUT);
    }

    /// Accepts connections until the gate closes, handing each one to
    /// `on_conn`, then drops the listener. Accept errors (EMFILE,
    /// ENOBUFS, …) back off exponentially from 5 ms to a 500 ms cap and
    /// reset on the next success, so a persistent error cannot hot-loop.
    pub fn run(&self, listener: TcpListener, mut on_conn: impl FnMut(TcpStream)) {
        let mut error_backoff = ACCEPT_BACKOFF_MIN;
        while self.is_open() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if !self.is_open() {
                        // The shutdown wake, or a client racing it.
                        return;
                    }
                    error_backoff = ACCEPT_BACKOFF_MIN;
                    on_conn(stream);
                }
                Err(_) => {
                    thread::sleep(error_backoff);
                    error_backoff = (error_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
            }
        }
    }
}

/// Blocks until the acceptor thread of a closed `gate` has returned (its
/// listener is then closed), sending the wake again every 200 ms while
/// the thread still runs. Joining the handle afterwards cannot block.
pub fn await_exit(acceptor: &JoinHandle<()>, gate: &AcceptGate) {
    let mut last_wake = monotonic_ns();
    while !acceptor.is_finished() {
        if monotonic_ns().saturating_sub(last_wake) >= WAKE_RETRY.as_nanos() as u64 {
            gate.wake();
            last_wake = monotonic_ns();
        }
        thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Instant;

    fn start(bind: &str) -> (Arc<AcceptGate>, Arc<AtomicUsize>, JoinHandle<()>) {
        let listener = TcpListener::bind(bind).expect("bind");
        let gate = Arc::new(AcceptGate::new(listener.local_addr().expect("addr")));
        let accepted = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (gate, accepted) = (Arc::clone(&gate), Arc::clone(&accepted));
            thread::spawn(move || {
                gate.run(listener, |_| {
                    accepted.fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        (gate, accepted, handle)
    }

    #[test]
    fn close_wakes_a_blocked_acceptor_and_closes_the_listener() {
        let (gate, accepted, handle) = start("127.0.0.1:0");
        let client = TcpStream::connect(gate.addr).expect("connect");
        drop(client);
        gate.close();
        gate.close();
        let started = Instant::now();
        await_exit(&handle, &gate);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(
            accepted.load(Ordering::SeqCst) <= 1,
            "the wake is never handed on"
        );
        assert!(
            TcpStream::connect(gate.addr).is_err(),
            "the listener is closed once the acceptor returns"
        );
    }

    #[test]
    fn await_exit_repeats_the_wake_when_the_first_one_was_lost() {
        let (gate, accepted, handle) = start("127.0.0.1:0");
        // Let the acceptor hand on one connection and block in `accept`
        // again, then clear the flag without the wake, as if the wake
        // connect had failed: only a repeated wake can unblock it.
        let _client = TcpStream::connect(gate.addr).expect("connect");
        while accepted.load(Ordering::SeqCst) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(50));
        gate.accepting.store(false, Ordering::SeqCst);
        let started = Instant::now();
        await_exit(&handle, &gate);
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
