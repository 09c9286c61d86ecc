//! Sample statistics and process figures shared by the bench reports
//! and the fleet and conformance binaries.

/// Interpolated `p`-th percentile (`0.0..=100.0`) of an ascending-sorted
/// slice; `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (p / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let w = rank - lo as f64;
    // `get` rather than indexing: obs is held to panic-freedom, and a `p`
    // in range keeps both ranks in bounds.
    match (sorted.get(lo), sorted.get(rank.ceil() as usize)) {
        (Some(&a), Some(&b)) => a * (1.0 - w) + b * w,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in bytes, read from the
/// kernel's `VmHWM` high-water mark in `/proc/self/status` — `std`-only,
/// no syscall bindings. Returns `None` off Linux or if the field is
/// missing, so callers degrade to omitting the figure rather than
/// failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// Hardware threads available to this process (`0` when unknown): the
/// `host.nproc` every BENCH report records.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The checked-out git revision (`git rev-parse HEAD`), or `"unknown"`
/// outside a git checkout: the `rev` every BENCH report records.
pub fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // The kernel reports KiB; anything under a page or over a
        // terabyte would mean the parse walked off the field.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss >= 4096, "rss = {rss}");
            assert!(rss < 1 << 40, "rss = {rss}");
            assert_eq!(rss % 1024, 0, "VmHWM is KiB-granular");
        }
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
    }
}
