//! Seeded inputs: the benchmark's own RNG, Zipf sampler, and plan
//! request keys. Nothing here comes from the crates under test, so a
//! change to them cannot change what the servers are asked.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Plan query kinds the workloads send.
pub const KINDS: [&str; 5] = ["optimal_point", "mep", "sprint", "sweep_summary", "bypass"];
const REGULATORS: [&str; 3] = ["sc", "ldo", "buck"];

/// One plan request without its id: kind plus scenario fields. Every
/// field not written here takes the protocol's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Irradiance in units of 1e-4 of full sun.
    pub g_e4: u32,
    /// Index into the regulator names.
    pub regulator: usize,
}

impl PlanKey {
    /// The request line body after `{"id":<id>,` — kind and scenario.
    pub fn body(&self) -> String {
        let kind = KINDS[self.kind];
        let deadline = if kind == "sprint" {
            ",\"deadline\":0.02"
        } else {
            ""
        };
        format!(
            "\"query\":\"{kind}\",\"scenario\":{{\"irradiance\":{},\"regulator\":\"{}\"{deadline}}}}}",
            self.g_e4 as f64 / 1e4,
            REGULATORS[self.regulator]
        )
    }

    /// A full request line with `id`, newline-terminated.
    pub fn line(&self, id: usize) -> Vec<u8> {
        format!("{{\"id\":{id},{}\n", self.body()).into_bytes()
    }
}

/// Lowest irradiance any workload asks about: below ~0.15 some plans are
/// legitimately infeasible, and the workloads must not fail.
const G_MIN_E4: u32 = 2_500;
const G_MAX_E4: u32 = 10_000;

/// `n` distinct hit keys over the four cheap kinds on a 0.01 irradiance
/// grid, in a seeded order (rank 0 is the hottest under Zipf).
pub fn hit_keys(seed: u64, n: usize) -> Vec<PlanKey> {
    let mut all: Vec<PlanKey> = Vec::new();
    for kind in 0..4 {
        for regulator in 0..REGULATORS.len() {
            for g_e4 in (G_MIN_E4..=G_MAX_E4).step_by(100) {
                all.push(PlanKey {
                    kind,
                    g_e4,
                    regulator,
                });
            }
        }
    }
    let mut rng = Rng::new(seed, 1);
    for i in 0..n.min(all.len()) {
        let j = i + rng.below(all.len() - i);
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// A Zipf(`s`) stream of `len` ranks over `keys` keys.
pub fn zipf_stream(seed: u64, stream: u64, keys: usize, s: f64, len: usize) -> Vec<usize> {
    let zipf = Zipf::new(keys, s);
    let mut rng = Rng::new(seed, stream);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// Miss-traffic mix per block of 100 fresh keys (optimal_point, mep,
/// sprint, sweep_summary, bypass). Bypass solves are ~50x the others, so
/// their small share still carries the tail. Every block holds exactly
/// this mix, so seeds differ in order and irradiance but not in work.
const MISS_BLOCK: [usize; 5] = [35, 35, 10, 16, 4];
/// Keys per block that are sent twice in a row (in-batch dedup).
const MISS_REPEATS: usize = 5;

/// `len` miss-workload keys from a keyspace of ~110k (7 501 irradiance
/// levels x 3 regulators x 5 kinds): fresh irradiance per key, regulators
/// in rotation per kind, and a few back-to-back repeats.
pub fn miss_stream(seed: u64, stream: u64, len: usize) -> Vec<PlanKey> {
    let mut rng = Rng::new(seed, stream);
    let mut rotation = [0usize; 5];
    let mut out = Vec::with_capacity(len + MISS_REPEATS);
    while out.len() < len {
        let mut block: Vec<usize> = (0..KINDS.len())
            .flat_map(|kind| std::iter::repeat_n(kind, MISS_BLOCK[kind]))
            .collect();
        for i in 0..block.len() {
            let j = i + rng.below(block.len() - i);
            block.swap(i, j);
        }
        let repeats: Vec<usize> = (0..MISS_REPEATS).map(|_| rng.below(block.len())).collect();
        for (i, kind) in block.into_iter().enumerate() {
            let key = PlanKey {
                kind,
                g_e4: G_MIN_E4 + rng.below((G_MAX_E4 - G_MIN_E4 + 1) as usize) as u32,
                regulator: rotation[kind] % REGULATORS.len(),
            };
            rotation[kind] += 1;
            out.push(key);
            if repeats.contains(&i) {
                out.push(key);
            }
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(hit_keys(7, 64), hit_keys(7, 64));
        assert_ne!(hit_keys(7, 64), hit_keys(8, 64));
        assert_eq!(miss_stream(3, 1, 500), miss_stream(3, 1, 500));
        assert_eq!(
            zipf_stream(3, 2, 64, 1.1, 100),
            zipf_stream(3, 2, 64, 1.1, 100)
        );
    }

    #[test]
    fn lines_parse_as_the_protocol_expects() {
        for key in hit_keys(1, 32).iter().chain(miss_stream(1, 1, 64).iter()) {
            let line = String::from_utf8(key.line(9)).unwrap();
            let req = hems_serve::Request::parse_line(line.trim_end()).unwrap();
            assert_eq!(req.kind.as_wire(), KINDS[key.kind]);
            assert_eq!(req.scenario.unwrap().irradiance, key.g_e4 as f64 / 1e4);
        }
    }
}
