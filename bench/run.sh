#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's build cache
# and temporary files are kept there too, so nothing is written outside
# the checkout) and runs it with the arguments given:
#
#   bash bench/run.sh --workload steady-ring-16 --seed 7 --seconds 6 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
