#!/bin/sh
# Runs the matrix-scheduler benchmarks (the bare scheduler and the
# telemetry-overhead variant), the pruning-engine benchmarks (the
# prune ablation, the checkpoint ladder, and the golden-run profiling
# overhead guard), the detail-window ablation, and the interpreter
# dispatch benchmark (predecode cache on/off), and writes the machine-readable baselines
# results/BENCH_scheduler.json, results/BENCH_prune.json,
# results/BENCH_window.json and results/BENCH_interp.json via
# scripts/benchjson.
#
# Usage: scripts/bench_scheduler.sh [count]
#   count  -count passed to `go test -bench` (default 1)
set -eu

cd "$(dirname "$0")/.."
count="${1:-1}"
mkdir -p results

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -run '^$' -bench 'BenchmarkMatrixScheduler' -benchtime 1x \
    -count "$count" . | tee "$out"
go run ./scripts/benchjson <"$out" >results/BENCH_scheduler.json
echo "wrote results/BENCH_scheduler.json"

go test -run '^$' \
    -bench 'BenchmarkPruneAblation|BenchmarkCheckpointLadder|BenchmarkGoldenProfileOverhead' \
    -benchtime 3x -count "$count" . | tee "$out"
go run ./scripts/benchjson <"$out" >results/BENCH_prune.json
echo "wrote results/BENCH_prune.json"

go test -run '^$' -bench '^BenchmarkDetailWindow$' -benchtime 3x \
    -count "$count" . | tee "$out"
go run ./scripts/benchjson <"$out" >results/BENCH_window.json
echo "wrote results/BENCH_window.json"

go test -run '^$' -bench '^BenchmarkInterpDispatch$' -benchtime 200x \
    -count "$count" . | tee "$out"
go run ./scripts/benchjson <"$out" >results/BENCH_interp.json
echo "wrote results/BENCH_interp.json"
