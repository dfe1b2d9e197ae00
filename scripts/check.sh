#!/usr/bin/env bash
# Full local gate: everything CI (and the next contributor) expects to pass.
# Usage: scripts/check.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" ]] || ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    OFFLINE=(--offline)
fi

run() {
    echo "==> $*"
    "$@"
}

run cargo build "${OFFLINE[@]}" --release --workspace
run cargo test "${OFFLINE[@]}" -q --workspace
run cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings
# Graceful-degradation gate: every workspace library must not panic on
# malformed input. All lib targets deny clippy::unwrap_used /
# clippy::expect_used (tests are exempt via cfg_attr); this pass fails
# the build if a violation slips in.
run cargo clippy "${OFFLINE[@]}" -p ir-types -p ir-fault -p ir-inference -p ir-core \
    -p ir-measure -p ir-dataplane -p ir-bgp -p ir-topology \
    -p ir-audit -p ir-scenarios -p ir-experiments -p ir-serve --lib -- -D warnings
run cargo fmt --check
# Engine-equivalence gate in release: the differential suites compare the
# event-driven engine against the sweep oracle — and warm what-if answers
# against cold recomputation — under optimized codegen too (debug-only
# runs have missed wrapping/ordering bugs before).
# `oscillation_differential` is the same gate on worlds with live dispute
# wheels (BAD GADGET + 22 generator worlds): the event engine's
# fast-forward must land on the cap-burning oracle's tables after
# announce, poisoned re-announce and withdraw/re-announce, step budgets
# bound executed work, and converging events keep their pinned counters.
# `whatif_inplace` is the in-place proof: no query (answered, budget-tripped,
# rejected, concurrent or panicking) leaves a trace on the resident base.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp \
    --test differential --test fault_differential --test whatif_differential \
    --test oscillation_differential --test whatif_inplace
# Certificate-maintenance gate (release): ≥1000 randomized (certified
# world, delta batch) pairs must get the same verdict from the incremental
# DeltaAuditor as from a full re-audit of the edited world, and certified
# Free-order serving answers must stay route-for-route exact (ages
# included) against cold WaveExact replay under both verdicts.
run cargo test "${OFFLINE[@]}" --release -q -p ir-audit \
    --test delta_audit_differential
# Security-scenario gate (release): hijack scenarios must equal
# hand-driven cold engine convergence, 0%-adoption sweeps must equal
# plain delta replay byte-for-byte, full-ROV capture sets must match the
# per-attack node-level invariants, rayon and sequential sweeps must
# render identical bytes, and warm hijack what-ifs must stay
# route-for-route exact (ages included) against cold scenario runs under
# every defense and both certifier verdicts.
run cargo test "${OFFLINE[@]}" --release -q -p ir-scenarios \
    --test hijack_differential --test sweep_invariants --test warm_hijack
# Internet-scale smoke (release, ignored by default): a ≥50k-AS world must
# converge a single prefix and a 1000-prefix universe slice inside the
# compact storage's memory budget. Minutes on one core.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --test scale_smoke -- --ignored
# Paper-world oscillation proof (release, ignored by default): the seed-7
# universe keeps its 410 unconverged prefixes, matches the sweep oracle on
# a 16-prefix sample, carries a short-period witness for every wheel, and
# executes < 3 M activations (the cap burn was 97.3 M). ~15 s.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --test oscillation_differential \
    -- --ignored
# Serving-loop gate (release): the real ir-serve binary on an ephemeral
# port answers a 50-query mixed batch (malformed JSON and over-deadline
# included), drains clean on a shutdown request, and exits 0 — and a
# SIGKILL mid-snapshot-write must recover the last-good image on restart.
run cargo test "${OFFLINE[@]}" --release -q -p ir-serve \
    --test server_smoke --test crash_safety
# Policy-safety gate: the generated tiny world must audit clean (the
# binary exits 1 on any Error-severity finding).
run cargo run "${OFFLINE[@]}" --release -p ir-experiments --bin audit -- --scale tiny --seed 7
# Scenario-dump smoke (release): `diag` must build the tiny world under
# chaos faults and the paper world with its oscillation witnesses, and
# exit 0. Stdout is discarded; a non-zero exit fails the gate.
echo "==> diag tiny 7 0.4 && diag paper 7 (stdout discarded)"
cargo run "${OFFLINE[@]}" --release -q -p ir-experiments --bin diag -- tiny 7 0.4 >/dev/null
cargo run "${OFFLINE[@]}" --release -q -p ir-experiments --bin diag -- paper 7 >/dev/null
# Artifact freshness: the committed repro_paper_seed7.* files must match
# a fresh zero-fault paper-scale run (minutes; release only).
run cargo test "${OFFLINE[@]}" --release -q -p ir-experiments --test artifact_freshness \
    -- --ignored

# Frozen-benchmark gate: `benchmark/` is its own workspace with its own
# `Cargo.lock`, pinned to the public API and dependency graph of the crates
# it measures. Build and test it `--locked`, so a break against it fails
# here instead of in the benchmark driver. (Sharing target/ saves compiling
# the product crates a second time.)
run cargo build --offline --release --locked --manifest-path benchmark/Cargo.toml \
    --target-dir target
run cargo test --offline --release --locked -q --manifest-path benchmark/Cargo.toml \
    --target-dir target
# Size of the shipping code, reproducibly: non-test lines under crates/*/src
# (everything up to a file's first `#[cfg(test)]`). CHANGES.md quotes
# this number.
echo "==> non-test source lines"
git ls-files 'crates/*/src/*.rs' 'crates/*/src/bin/*.rs' \
    | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'

echo "All checks passed."
