//! Shard-merge determinism: snapshot totals must depend only on the
//! multiset of recorded values, never on which threads recorded them
//! or how the scheduler interleaved them.
//!
//! The property test drives a seeded workload (values from the
//! workspace's own `XorShiftRng`) through varying thread counts and
//! asserts every derived quantity — counter totals, histogram count /
//! sum / min / max, per-bucket counts, and quantile estimates — is
//! bit-identical to a single-threaded reference run over the same
//! values.

use hems_obs::{Registry, Snapshot};
use hems_units::XorShiftRng;
use std::sync::Arc;

/// The seeded workload: `(counter increments, histogram samples)`
/// partitioned into `threads` slices. Samples span the exact-integer
/// region, the log region, and the overflow region of the bucket
/// table.
fn workload(seed: u64, total: usize) -> Vec<(u64, u64)> {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    (0..total)
        .map(|_| {
            let add = rng.below_u32(5) as u64 + 1;
            let magnitude = rng.below_u32(4);
            let sample = match magnitude {
                0 => rng.below_u32(16) as u64 + 1,
                1 => rng.below_u32(100_000) as u64,
                2 => rng.below_u32(u32::MAX) as u64,
                _ => u64::from(rng.below_u32(1_000)) * 10_000_000_000,
            };
            (add, sample)
        })
        .collect()
}

fn record_all(registry: &Registry, threads: usize, items: &[(u64, u64)]) -> Snapshot {
    std::thread::scope(|scope| {
        for chunk in items.chunks(items.len().div_ceil(threads).max(1)) {
            let counter = registry.counter("det.count");
            let histogram = registry.histogram("det.hist");
            scope.spawn(move || {
                for (add, sample) in chunk {
                    counter.add(*add);
                    histogram.record(*sample);
                }
            });
        }
    });
    registry.snapshot()
}

#[test]
fn snapshot_totals_are_independent_of_thread_interleaving() {
    for seed in [1u64, 7, 42, 1234] {
        let items = workload(seed, 4_000);
        let reference = record_all(&Registry::new(), 1, &items);
        for threads in [2usize, 4, 8, 16, 19] {
            let snap = record_all(&Registry::new(), threads, &items);
            assert_eq!(
                snap.counter("det.count"),
                reference.counter("det.count"),
                "seed {seed}, {threads} threads"
            );
            let h = snap.histogram("det.hist").expect("histogram present");
            let r = reference.histogram("det.hist").expect("reference present");
            assert_eq!(h, r, "seed {seed}, {threads} threads");
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    h.quantile(q).to_bits(),
                    r.quantile(q).to_bits(),
                    "seed {seed}, {threads} threads, q {q}"
                );
            }
        }
    }
}

#[test]
fn repeated_runs_of_the_same_seed_render_identically() {
    // Beyond struct equality: the exported JSON (what the fleet
    // report embeds) is byte-stable when the clock is manual.
    let clock = Arc::new(hems_obs::ManualClock::new(0));
    let render = |clock: &Arc<hems_obs::ManualClock>| {
        let registry = Registry::with_clock(clock.clone());
        let items = workload(99, 2_000);
        record_all(&registry, 8, &items);
        registry.snapshot().render()
    };
    assert_eq!(render(&clock), render(&clock));
}
