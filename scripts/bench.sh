#!/usr/bin/env bash
# The benchmark of record: five end-to-end workloads plus per-layer
# metrics, frozen and comparable across readings. See benchmark/README.md.
#
# Usage: scripts/bench.sh [benchmark/run.sh arguments]
exec "$(dirname "$0")/../benchmark/run.sh" "$@"
