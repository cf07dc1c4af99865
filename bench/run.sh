#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the
# driver from this checkout's source, then run it with the arguments
# given, e.g.
#
#   bash bench/run.sh --workload live_drain --seed 1 --seconds 15 --trace 0
#
# Everything it writes — Go's build cache and temp files, the binary,
# each run's scratch data and traces — stays under .bench_build/ in the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench: no go.mod beside bench/: the benchmark builds the repository it measures from source" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/tweeql-bench" ./bench
exec "$build/tweeql-bench" "$@"
