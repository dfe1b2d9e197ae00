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
# `oscillation_differential` is the same gate on worlds with dispute
# wheels (BAD GADGET alone and grafted onto a generated world, DISAGREE,
# and the 2 generator worlds that still oscillate): the event engine's
# fast-forward must land on the cap-burning oracle's tables after
# announce, poisoned re-announce and withdraw/re-announce, step budgets
# bound executed work, and converging events keep their pinned counters.
# `whatif_inplace` is the in-place proof: no query (answered, budget-tripped,
# rejected, concurrent or panicking) leaves a trace on the resident base.
# `work_counts` pins the universe's exact work on three tiny worlds (the paper_pipeline twin).
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp \
    --test differential --test fault_differential --test whatif_differential \
    --test oscillation_differential --test whatif_inplace --test work_counts
# The arena's hasher, one-walk import read and rollback, optimized too.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --lib patharena
# Hostile snapshots: ~3 000 resealed byte mutations of a universe image
# never panic the decoder, route lookups or engine hydration, a u32::MAX
# count is refused before it is allocated, and hydration refuses a table
# that decodes but is not a fixpoint of the world (wrong row count, or a
# row the re-derived adj-RIB-in would not select).
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --lib hostile_snapshot
# Certificate-maintenance gate (release): ≥1000 randomized (certified
# world, delta batch) pairs must get the same verdict from the incremental
# DeltaAuditor as from a full re-audit of the edited world, and certified
# Free-order serving answers must stay route-for-route exact (ages
# included) against cold WaveExact replay under both verdicts.
# `whatif_certified`: warm answers against worlds `edited_world` baked the edits into.
# `free_order_differential` + `generator_clean`: certified worlds (sibling orgs included) route identically in free order.
run cargo test "${OFFLINE[@]}" --release -q -p ir-audit \
    --test delta_audit_differential --test whatif_certified \
    --test free_order_differential --test generator_clean
# Security-scenario gate (release): hijack scenarios must equal
# hand-driven cold engine convergence, 0%-adoption sweeps must equal
# plain delta replay byte-for-byte, full-ROV capture sets must match the
# per-attack node-level invariants, rayon and sequential sweeps must
# render identical bytes, and warm hijack what-ifs must stay
# route-for-route exact (ages included) against cold scenario runs under
# every defense and both certifier verdicts.
run cargo test "${OFFLINE[@]}" --release -q -p ir-scenarios \
    --test hijack_differential --test sweep_invariants --test warm_hijack
# Warm-campaign gate (release): a poisoning campaign that converges round 0
# once per worker and rolls every target back to it must equal a fresh sim
# per target — routes, announcement counts and degraded rounds — under the
# quiet plane and under chaos planes that flap mux links and lose whole
# rounds (round 0 included), and a scope whose closure panics must leave
# best table, adj-RIB-in and observations untouched. The second run is the
# paper world's 120-target campaign (ignored by default; ~1 s).
run cargo test "${OFFLINE[@]}" --release -q -p ir-measure --test warm_campaign
run cargo test "${OFFLINE[@]}" --release -q -p ir-measure --test warm_campaign -- --ignored
# Internet-scale smoke (release, ignored by default): a ≥50k-AS world must
# converge a single prefix and a 1000-prefix universe slice inside the
# compact storage's memory budget. Minutes on one core.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --test scale_smoke -- --ignored
# Paper-world proof (release, ignored by default): the seed-7 universe
# converges (410 prefixes oscillated while siblings promoted routes to
# customer tier), matches the sweep oracle on a 16-prefix sample, and
# executes exactly 823 096 activations. ~10 s.
run cargo test "${OFFLINE[@]}" --release -q -p ir-bgp --test oscillation_differential \
    -- --ignored
# Serving-loop gate (release): the real ir-serve binary on an ephemeral
# port, wall deadline on, answers a 50-query mixed batch (malformed JSON
# and over-deadline included), drains clean on a shutdown request, and
# exits 0 — and a SIGKILL mid-snapshot-write must recover the last-good
# image on restart, the startup publish must be the only write, and a
# restart must serve it. `server_loop` runs the deadline, quarantine and
# shed paths under optimized codegen too.
# `wire_golden` + `wire_alloc`: streamed replies keep bytes and allocation bound optimized.
# `wire_hostile`: ~20k mutated lines never panic either parser, and trees round-trip.
run cargo test "${OFFLINE[@]}" --release -q -p ir-serve \
    --test server_smoke --test crash_safety --test server_loop \
    --test wire_golden --test wire_alloc --test wire_hostile
# The JSON façade's own tests (parser errors, number forms, keys), optimized too.
run cargo test "${OFFLINE[@]}" --release -q -p serde -p serde_json
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
# this number and the next.
echo "==> non-test source lines"
git ls-files 'crates/*/src/*.rs' 'crates/*/src/bin/*.rs' \
    | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
# Moving code into tests is not deleting it: also print every tracked .rs
# line, tests, vendored crates and the benchmark included.
echo "==> tracked .rs lines"
git ls-files '*.rs' | xargs cat | wc -l

echo "All checks passed."
