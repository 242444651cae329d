#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload read-dram --seed 1 --seconds 25 --trace 0
#
# Go's build cache, the binaries and every scratch file stay under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$work/bench" .
exec "$work/bench" "$@"
