#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash xlpbench/run.sh --workload ground-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build in the
# checkout (Go build cache, temporary files, the binary, the service
# store and the span files).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/xlpbench" && go build -o "$build/xlpbench" .)
exec "$build/xlpbench" "$@"
