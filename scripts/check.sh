#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, build, full tests, the race
# detector over the short-mode suite (the full figure sweeps under -race
# would take tens of minutes; the short suite still runs every
# parallel-runner and engine test), then every benchmark run once. Pass
# FULL_RACE=1 to run the race detector over the complete suite instead.
# The full tests include the dead-code gate (deadcode_test.go), which
# type-checks this module and perfbench/ and fails on any internal/
# identifier that nothing but its own package's tests uses; it skips
# under -short, so the race pass does not repeat it.
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
# Benchmark smoke: every Go benchmark runs exactly once, so a benchmark
# that no longer builds or fails its own checks (each b.Fatal()s on error)
# breaks the gate. No timing is compared here; the perfbench module and
# BENCHMARK.json are the repo's benchmark record.
go test -run '^$' -bench . -benchtime 1x ./...
echo "check.sh: all gates passed"
