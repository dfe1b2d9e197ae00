#!/usr/bin/env bash
# The benchmark of record, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE] [WORKLOAD...]
#       A full reading: lints and builds the benchmark crate, then runs each
#       workload (default: all five) in its own process, untraced for the
#       end-to-end metrics and traced for the per-layer ones. Prints every
#       metric as `workload metric value unit [n=samples]`, appends one
#       record per run to FILE (default benchmark/out/results.jsonl, started
#       afresh), writes benchmark/out/trace-<workload>.jsonl, and exits
#       non-zero if any correctness check failed.
#
#   benchmark/run.sh --compare A.jsonl B.jsonl
#       Two readings of the same seed side by side; non-zero when a metric
#       worsened beyond its bound or an exact count differs.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, for the driver of BENCHMARK.json: builds quietly, and the
#       last line of standard output is the result object.
#
# Runs from any directory; offline; touches nothing outside the checkout.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# A relative CARGO_TARGET_DIR is relative to the caller's directory, as it
# is for cargo itself. Unset, the repo's shared target/ is used.
TARGET=${CARGO_TARGET_DIR:-$HERE/../target}
case $TARGET in /*) ;; *) TARGET=$PWD/$TARGET ;; esac
BIN=$TARGET/release/ir-benchmark
MANIFEST=(--manifest-path "$HERE/Cargo.toml")

# Always a release build: the binary itself refuses to measure otherwise.
build() {
    cargo build --offline --release --quiet "${MANIFEST[@]}" --target-dir "$TARGET" >&2
}

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        build
        exec "$BIN" "$@" --out-dir "$HERE/out"
    fi
done

if [[ ${1:-} == --compare ]]; then
    [[ $# -eq 3 ]] || { echo "usage: run.sh --compare A.jsonl B.jsonl" >&2; exit 2; }
    build
    exec "$BIN" --compare "$2" "$3"
fi

SEED=7
SECONDS_PER_RUN=10
OUT=$HERE/out/results.jsonl
WORKLOADS=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed) SEED=$2; shift 2 ;;
        --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
        --out) OUT=$2; shift 2 ;;
        -h | --help) sed -n '2,22p' "${BASH_SOURCE[0]}"; exit 0 ;;
        -*) echo "unknown flag $1" >&2; exit 2 ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
    WORKLOADS=(paper_pipeline whatif_edge whatif_wide serve_mixed hijack_sweep)
fi

# The root scripts/check.sh does not see this crate.
cargo fmt "${MANIFEST[@]}" --check
cargo clippy --offline --release --quiet "${MANIFEST[@]}" --target-dir "$TARGET" \
    --all-targets -- -D warnings
build

mkdir -p "$(dirname "$OUT")"
: > "$OUT"
status=0
for workload in "${WORKLOADS[@]}"; do
    for trace in 0 1; do
        # The last line is the driver's result object; the record file
        # holds the same numbers and more.
        "$BIN" --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
            --trace "$trace" --out-dir "$HERE/out" --record "$OUT" | sed '$d' || status=1
    done
done
"$BIN" --overhead "$OUT"
echo "# records: $OUT"
exit $status
