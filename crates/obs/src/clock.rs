//! Time sources for the telemetry layer.
//!
//! Everything in the workspace that needs wall-clock time goes through
//! this module — the hems-lint `clock` rule forbids raw
//! `Instant::now()` / `SystemTime::now()` calls anywhere else. Two
//! implementations of [`Clock`] exist: [`MonotonicClock`] reads the
//! process-wide monotonic nanosecond counter (real time), and
//! [`ManualClock`] is a deterministic clock for tests that only moves
//! when told to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;
use std::time::Instant;

/// A nanosecond time source. Implementations must be cheap and
/// thread-safe: `now_ns` sits inside span guards on hot paths.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The process epoch: captured on first use, so all `monotonic_ns`
/// readings share one origin and differences are meaningful.
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Nanoseconds since the first call into this module, from the OS
/// monotonic clock. This is the one sanctioned way to read real time
/// in the workspace; the `u64` range covers ~584 years of uptime.
pub fn monotonic_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

/// Real time: delegates to [`monotonic_ns`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        monotonic_ns()
    }
}

/// A clock that only advances when told to — spans measured against it
/// are exactly reproducible, which is what the span-duration unit
/// tests and the fleet campaign's byte-stable snapshots need.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        Self {
            now: AtomicU64::new(start_ns),
        }
    }

    /// Moves the clock forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.now.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute reading.
    pub fn set(&self, now_ns: u64) {
        self.now.store(now_ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        let clock = MonotonicClock;
        assert!(clock.now_ns() >= b);
    }

    #[test]
    fn manual_clock_moves_only_on_command() {
        let clock = ManualClock::new(100);
        assert_eq!(clock.now_ns(), 100);
        assert_eq!(clock.now_ns(), 100);
        clock.advance(50);
        assert_eq!(clock.now_ns(), 150);
        clock.set(7);
        assert_eq!(clock.now_ns(), 7);
    }
}
