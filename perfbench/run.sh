#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and span traces stay under .bench_build
# in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
