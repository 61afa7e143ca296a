#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   bench/run.sh                      untraced pass, then traced pass, over every workload
#   SEED=3 WORKLOADS=windowed-turbo bench/run.sh
#   bench/run.sh -selfcheck           the untraced pass twice, compared against the bounds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one workload, one result line (the BENCHMARK.json contract)
#
# Everything it writes stays inside the checkout: the build (and Go's
# caches) under .bench_build/, results and scratch data under bench/out/.
# It exits with the program's status.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$here/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)

cd "$root"
if [ "$#" -gt 0 ]; then
	exec "$build/bench" -out bench/out "$@"
fi
args=(-out bench/out -seed "${SEED:-7}")
if [ -n "${WORKLOADS:-}" ]; then
	args+=(-workloads "$WORKLOADS")
fi
"$build/bench" "${args[@]}"
exec "$build/bench" "${args[@]}" -trace
