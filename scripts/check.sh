#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, build, full tests, then the
# race detector over the short-mode suite (the full figure sweeps under
# -race would take tens of minutes; the short suite still runs every
# parallel-runner and engine test). Pass FULL_RACE=1 to run the race
# detector over the complete suite instead.
set -eu
cd "$(dirname "$0")/.."

# Information only, never a gate: the root module's non-test Go line
# count (perfbench/ is its own module; hidden build directories skipped).
lines="$(find . -path './.*' -prune -o -path ./perfbench -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print | xargs cat | wc -l)" || lines=unknown
echo "check.sh: root module non-test Go lines: $lines"

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "check.sh: gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
if [ "${FULL_RACE:-0}" = "1" ]; then
	go test -race ./...
else
	go test -race -short ./...
fi
# Benchmark drift check: compares current timings against the committed
# BENCH_*.json baselines. A >20% slowdown prints a warning table (and a
# CI step-summary entry) but never fails the gate — single runs are too
# noisy to block on. Skip entirely with SKIP_BENCH_COMPARE=1.
if [ "${SKIP_BENCH_COMPARE:-0}" != "1" ]; then
	go run ./cmd/benchcmp
fi
echo "check.sh: all gates passed"
