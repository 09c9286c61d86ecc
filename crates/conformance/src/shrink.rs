//! Deterministic shrinking: minimize a failing [`CaseInput`] and emit a
//! one-line replayable repro.
//!
//! The candidate list ([`candidates`]) is a *pure, ordered* function of
//! the current input — that ordering is the repro format's contract. A
//! repro line `oracle:seed:i.j.k` means: generate the input from `seed`,
//! then repeatedly take candidate `i` (then `j`, then `k`) of the
//! then-current input. Greedy first-still-failing descent makes the
//! recorded indices exactly reproducible, so a CI fuzz failure replays
//! locally with `hems-conformance --replay <line>`.

use crate::case::{CaseInput, ScriptStep};
use crate::error::ConformanceError;
use crate::oracles::{self, Divergence, OracleCtx, OracleKind};

/// A replayable shrink trace: the oracle, the generating seed, and the
/// candidate indices the greedy descent took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Which oracle diverged.
    pub oracle: OracleKind,
    /// The case seed the input was generated from.
    pub seed: u64,
    /// Candidate indices taken, in order.
    pub steps: Vec<usize>,
}

impl Repro {
    /// Renders the one-line form `oracle:0xSEED:i.j.k` (`-` for an
    /// empty step list).
    pub fn render(&self) -> String {
        let steps = if self.steps.is_empty() {
            "-".to_string()
        } else {
            self.steps
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(".")
        };
        format!("{}:0x{:016x}:{}", self.oracle.name(), self.seed, steps)
    }

    /// Parses [`Repro::render`]'s output.
    ///
    /// # Errors
    ///
    /// Returns a [`ConformanceError`] naming the malformed field.
    pub fn parse(line: &str) -> Result<Repro, ConformanceError> {
        let bad = |what: &str| ConformanceError::new("repro parse", format!("{what}: {line:?}"));
        let mut parts = line.trim().splitn(3, ':');
        let oracle = parts
            .next()
            .and_then(OracleKind::from_name)
            .ok_or_else(|| bad("unknown oracle"))?;
        let seed_text = parts.next().ok_or_else(|| bad("missing seed"))?;
        let seed_digits = seed_text
            .strip_prefix("0x")
            .ok_or_else(|| bad("seed must be 0x-prefixed hex"))?;
        let seed =
            u64::from_str_radix(seed_digits, 16).map_err(|_| bad("seed is not valid hex"))?;
        let steps_text = parts.next().ok_or_else(|| bad("missing steps"))?;
        let mut steps = Vec::new();
        if steps_text != "-" {
            for piece in steps_text.split('.') {
                steps.push(
                    piece
                        .parse::<usize>()
                        .map_err(|_| bad("steps must be dot-separated indices"))?,
                );
            }
        }
        Ok(Repro {
            oracle,
            seed,
            steps,
        })
    }

    /// Rebuilds the shrunken input this repro denotes.
    ///
    /// # Errors
    ///
    /// Fails when a recorded step index does not exist for the
    /// then-current input — a stale repro from an older generator.
    pub fn input(&self) -> Result<CaseInput, ConformanceError> {
        let mut current = CaseInput::generate(self.seed);
        for (at, &step) in self.steps.iter().enumerate() {
            let cands = candidates(&current);
            current = cands.into_iter().nth(step).ok_or_else(|| {
                ConformanceError::new(
                    "repro replay",
                    format!("step {at} index {step} is out of range — stale repro?"),
                )
            })?;
        }
        Ok(current)
    }
}

/// The ordered simplification candidates for one input. Every candidate
/// is strictly "smaller or simpler" in at least one dimension; the list
/// is deterministic, and indices into it are the repro format.
pub fn candidates(input: &CaseInput) -> Vec<CaseInput> {
    let mut out = Vec::new();
    let mut with = |f: &dyn Fn(&mut CaseInput)| {
        let mut cand = input.clone();
        f(&mut cand);
        out.push(cand);
    };

    // Scenario list reductions: halves, then single endpoints.
    let n = input.specs.len();
    if n > 1 {
        let mid = n / 2;
        with(&|c| c.specs.truncate(mid.max(1)));
        with(&|c| c.specs = c.specs.split_off(mid));
        with(&|c| c.specs.truncate(1));
        with(&|c| c.specs = c.specs.split_off(n - 1));
    }
    // Per-spec simplification toward the paper baseline (keeps only
    // the light level — the one field the dark-band behaviors need).
    for i in 0..n {
        with(&|c| {
            if let Some(spec) = c.specs.get_mut(i) {
                *spec = hems_serve::ScenarioSpec::baseline(spec.irradiance);
            }
        });
    }
    // Frame reductions.
    if !input.frames.is_empty() {
        with(&|c| c.frames.clear());
        let fm = input.frames.len() / 2;
        if fm > 0 {
            with(&|c| c.frames.truncate(fm));
            with(&|c| c.frames = c.frames.split_off(fm));
        }
    }
    // Outage reductions.
    if !input.outages.is_empty() {
        with(&|c| c.outages.clear());
        if input.outages.len() > 1 {
            with(&|c| c.outages.truncate(1));
        }
    }
    // Script reductions.
    if input.script.len() > 1 {
        with(&|c| c.script.truncate(1));
    }
    with(&|c| {
        c.script = vec![ScriptStep {
            kind: 2,
            vdd: 0.55,
            clock_fraction: 0.5,
        }]
    });
    // Scalar knob reductions.
    if input.grid_n > 2 {
        with(&|c| c.grid_n = 2);
        with(&|c| c.grid_n = (c.grid_n / 2).max(2));
    }
    if input.duration_ms > 2.0 {
        with(&|c| c.duration_ms = 2.0);
        with(&|c| c.duration_ms = (c.duration_ms / 2.0).max(2.0));
    }
    if input.policy_index != 0 {
        with(&|c| c.policy_index = 0);
    }
    with(&|c| c.v_initial = 1.1);
    with(&|c| c.light_seed = 0);
    out
}

/// Outcome of a shrink run: the repro line, the minimized input, and
/// the divergence it still produces.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Replayable trace.
    pub repro: Repro,
    /// The minimized input.
    pub input: CaseInput,
    /// The divergence the minimized input still triggers.
    pub divergence: Divergence,
}

/// Upper bound on greedy descent rounds; each round takes at most one
/// candidate, and every dimension bottoms out well under this.
const MAX_ROUNDS: usize = 64;

/// Greedily minimizes the failing input for `(oracle, seed)`.
///
/// # Errors
///
/// Propagates harness failures from the oracle, and errors when the
/// seed does not actually fail the oracle (a repro for a passing case
/// would be meaningless).
pub fn shrink(
    oracle: OracleKind,
    seed: u64,
    ctx: &mut OracleCtx,
) -> Result<Shrunk, ConformanceError> {
    let mut current = CaseInput::generate(seed);
    let Some(mut divergence) = oracles::run(oracle, &current, ctx)? else {
        return Err(ConformanceError::new(
            "shrink",
            format!("seed 0x{seed:016x} does not fail oracle {oracle}"),
        ));
    };
    let mut steps = Vec::new();
    for _ in 0..MAX_ROUNDS {
        let cands = candidates(&current);
        let mut taken = None;
        for (i, cand) in cands.into_iter().enumerate() {
            if cand == current {
                continue; // no-op candidate; skipping keeps indices stable
            }
            if let Some(d) = oracles::run(oracle, &cand, ctx)? {
                taken = Some((i, cand, d));
                break;
            }
        }
        let Some((i, cand, d)) = taken else { break };
        steps.push(i);
        current = cand;
        divergence = d;
    }
    Ok(Shrunk {
        repro: Repro {
            oracle,
            seed,
            steps,
        },
        input: current,
        divergence,
    })
}

/// The shrinker self-test: find a seed that trips the planted oracle
/// (a dark-band spec), shrink it, and assert the result is *minimal* —
/// one baseline-simplified spec, no frames, no outages, a one-step
/// script, the smallest grid and duration. Returns the repro so the
/// caller can print the replay line.
///
/// # Errors
///
/// Fails when no planted divergence is found in the scan window, when
/// the shrunken input is not minimal, or when the repro line does not
/// replay to a still-failing input — each a shrinker regression.
pub fn self_test(start_seed: u64, ctx: &mut OracleCtx) -> Result<Shrunk, ConformanceError> {
    let err = |m: String| ConformanceError::new("shrinker self-test", m);
    let mut planted_seed = None;
    for offset in 0..4096u64 {
        let seed = start_seed.wrapping_add(offset);
        if CaseInput::generate(seed).has_dark_spec() {
            planted_seed = Some(seed);
            break;
        }
    }
    let Some(seed) = planted_seed else {
        return Err(err(format!(
            "no dark-band seed in [{start_seed}, {start_seed}+4096) — generator drifted?"
        )));
    };
    let shrunk = shrink(OracleKind::Planted, seed, ctx)?;
    let input = &shrunk.input;
    if input.specs.len() != 1 {
        return Err(err(format!(
            "not minimal: {} specs survive (want 1)",
            input.specs.len()
        )));
    }
    let Some(spec) = input.specs.first() else {
        return Err(err("empty spec list".to_string()));
    };
    if *spec != hems_serve::ScenarioSpec::baseline(spec.irradiance) {
        return Err(err(
            "not minimal: spec not simplified to baseline".to_string()
        ));
    }
    if spec.irradiance >= crate::case::DARK_BAND {
        return Err(err("shrunken spec lost the dark-band trigger".to_string()));
    }
    if !input.frames.is_empty() || !input.outages.is_empty() {
        return Err(err("not minimal: frames or outages survive".to_string()));
    }
    if input.script.len() > 1 || input.grid_n != 2 || input.duration_ms != 2.0 {
        return Err(err(format!(
            "not minimal: script {} / grid {} / duration {}",
            input.script.len(),
            input.grid_n,
            input.duration_ms
        )));
    }
    // The rendered line must parse back and replay to a still-failing
    // input — the whole point of the repro format.
    let line = shrunk.repro.render();
    let parsed = Repro::parse(&line)?;
    if parsed != shrunk.repro {
        return Err(err(format!("repro line does not round-trip: {line}")));
    }
    let replayed = parsed.input()?;
    if replayed != shrunk.input {
        return Err(err(format!(
            "repro line replays to a different input: {line}"
        )));
    }
    if oracles::run(OracleKind::Planted, &replayed, ctx)?.is_none() {
        return Err(err(format!("replayed input no longer fails: {line}")));
    }
    Ok(shrunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_lines_round_trip_for_every_oracle() {
        for oracle in OracleKind::all().into_iter().chain([OracleKind::Planted]) {
            for steps in [vec![], vec![3, 0, 12]] {
                let repro = Repro {
                    oracle,
                    seed: 0x00c0_ffee,
                    steps,
                };
                let line = repro.render();
                assert!(line.starts_with(&format!("{}:0x", oracle.name())), "{line}");
                assert_eq!(Repro::parse(&line).ok(), Some(repro), "{line}");
            }
        }
        assert!(Repro::parse("chaos:0x0000000000000007:-").is_err());
    }
}
