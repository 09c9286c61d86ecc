#!/usr/bin/env bash
# Tier-1 verification: offline release build, the full test suite, lint
# gates (rustfmt + clippy with warnings denied), and smoke passes of the
# benchmark harnesses (one un-warmed call per bench, so every bench
# target's code path runs and its report is written and well-formed).
# Every report this script writes lands under target/ (target/verify/
# for the chaos, fleet and conformance bins, target/bench-smoke/ for the
# smoke benches), so a run never rewrites a committed BENCH_*.json.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/verify
smoke=target/bench-smoke
mkdir -p "$out"

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: hems-lint =="
# The repo's own static-analysis gate (DESIGN.md §10): panic-freedom on
# the service plane, unit discipline in the physics crates, determinism
# in the solvers, crate hygiene. It scans its own source too. Exits
# nonzero on any non-baselined finding.
cargo run --release -q -p hems-lint
# The --json mode must stay machine-readable, and the summary must prove
# the three interprocedural passes (DESIGN.md §15) actually ran: a
# non-trivial call graph was built and a per-pass count is present for
# each of panic_reach / lock_order / taint. A refactor that silently
# drops a pass fails here, not in production.
lint_summary="$(cargo run --release -q -p hems-lint -- --json | tail -1)"
LINT_SUMMARY="$lint_summary" python3 - <<'PYEOF'
import json, os
summary = json.loads(os.environ["LINT_SUMMARY"])
assert summary.get("summary") is True, f"not a summary line: {summary}"
assert summary["functions"] > 500, f"call graph too small: {summary['functions']} fns"
assert summary["edges"] > 1000, f"call graph too small: {summary['edges']} edges"
passes = summary["passes"]
for name in ("panic_reach", "lock_order", "taint"):
    assert name in passes, f"pass {name} missing from summary"
print(f"verify: hems-lint ran all 3 passes over "
      f"{summary['functions']} fns / {summary['edges']} edges "
      f"in {summary['wall_ms']} ms")
PYEOF
# JSON-lines smoke: findings and the summary line must round-trip
# through the workspace's JSON parser, hems_obs::json (the codec the
# serve protocol speaks; the full round-trip lives in
# crates/lint/tests/gate.rs — this runs it end-to-end).
cargo test --release -q -p hems-lint --test gate json_output_round_trips > /dev/null \
    || { echo "verify: hems-lint JSON round-trip through hems_obs::json failed" >&2; exit 1; }

echo "== chaos: seeded campaign (writes $out/BENCH_chaos.json) =="
# Fixed-seed smoke campaign (DESIGN.md §11): brownouts at checkpoint
# boundaries, worker-pool panics, and torn/dropped/slow connections
# through the chaos proxy. The bin exits nonzero if any injected fault
# goes unrecovered; the report is byte-for-byte reproducible per seed.
cargo run --release -q -p hems-chaos -- --seed 7 --smoke --out "$out/BENCH_chaos.json" > /dev/null

echo "== fleet: smoke (writes $out/BENCH_fleet.json) =="
# Fleet-twin smoke campaign (DESIGN.md §14): a small seeded fleet runs a
# full simulated day through the serve-backed planning tier, with
# regional brownout storms and sampled commit-digest checks. The bin
# exits nonzero on any crash-consistency violation or unrecovered storm;
# the report lines are byte-for-byte reproducible per seed.
cargo run --release -q -p hems-fleet -- --smoke --out "$out/BENCH_fleet.json" > /dev/null

echo "== conformance: goldens + fuzz (writes $out/BENCH_conformance.json) =="
# The conformance gate (DESIGN.md §16): committed golden fixtures must
# be bit-for-bit identical to recomputed solver outputs (intentional
# changes are re-captured with --bless), the committed corpus of
# interesting seeds must replay clean, the seeded differential fuzz
# plane must find no divergence between any fast path and its
# reference, and the shrinker must still minimize a planted divergence
# to a one-line repro. All timing goes through hems_obs::clock.
cargo run --release -q -p hems-conformance -- --check
cargo run --release -q -p hems-conformance -- --corpus
cargo run --release -q -p hems-conformance -- --self-test
cargo run --release -q -p hems-conformance -- --fuzz --seed 7 --cases 500 \
    --budget-ms 120000 --out "$out/BENCH_conformance.json"
python3 - "$out/BENCH_conformance.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["fixtures"] >= 10, f"only {report['fixtures']} golden fixtures"
oracles = report["oracles"]
assert len(oracles) >= 6, f"only {len(oracles)} oracles ran"
for oracle in oracles:
    name, cases = oracle["name"], oracle["cases"]
    assert cases >= 500, f"oracle {name} ran only {cases} cases"
    assert oracle["divergences"] == 0, f"oracle {name} diverged"
total = sum(o["cases"] for o in oracles)
rate = total / (report["total_wall_ms"] / 1e3)
print(f"verify: {report['fixtures']} fixtures bit-for-bit, "
      f"{len(oracles)} oracles x {oracles[0]['cases']} cases, "
      f"{rate:.0f} cases/sec overall")
EOF

echo "== smoke bench: sweep (writes $smoke/BENCH_sweep.json) =="
HEMS_BENCH_SMOKE=1 cargo bench -q -p hems-bench --bench sweep
# The batch engine must never lose to the exact serial reference it
# replaces — at any scenario count, on any host. The bench records the
# paired serial/batch speedup per scaling point; a value below 1.0 means
# the lockstep engine regressed.
python3 - "$smoke/BENCH_sweep.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
points = report["scaling"]
assert points, "BENCH_sweep.json has no scaling points"
for point in points:
    n, speedup = point["scenarios"], point["batch_speedup"]
    assert speedup >= 1.0, \
        f"batch engine speedup {speedup} < 1.0 at {n} scenarios"
assert report["engine"]["batch_speedup"] >= 1.0, "headline batch speedup < 1.0"
print(f"verify: batch speedup >= 1.0 at all {len(points)} scaling points")
EOF

echo "== obs: overhead + metrics smoke =="
# Telemetry smoke (DESIGN.md §12): the overhead bench runs one pass of
# the sweep with telemetry enabled and disabled (the <= 2% assertion only
# fires in full, non-smoke runs) and writes $smoke/BENCH_obs.json; the
# example stands up a loopback server, drives a mixed workload, and
# asserts the `metrics` query returns sweep/pool/cache/admission series.
HEMS_BENCH_SMOKE=1 cargo bench -q -p hems-bench --bench obs
cargo run --release -q --example metrics_query > /dev/null

# The obs bench self-validates its report before exiting; double-check
# the files landed where the docs say.
for report in "$smoke/BENCH_sweep.json" "$out/BENCH_chaos.json" "$smoke/BENCH_obs.json" \
    "$out/BENCH_fleet.json" "$out/BENCH_conformance.json"; do
    [ -s "$report" ] || { echo "verify: missing $report" >&2; exit 1; }
done

echo "verify: OK"
