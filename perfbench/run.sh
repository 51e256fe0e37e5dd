#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload sim-bidding --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry files in there too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
