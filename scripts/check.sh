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

# gotest runs one go test step, showing its output as it comes and
# keeping it in a temp file. On failure it ends with the step's
# "--- FAIL:", "FAIL" and "panic:" lines, so the name of the failing test
# survives in a captured tail however long the output ran.
log="$(mktemp)"
trap 'rm -f "$log" "$log.rc"' EXIT
gotest() {
	{
		rc=0
		go test "$@" 2>&1 || rc=$?
		echo "$rc" >"$log.rc"
	} | tee "$log"
	rc="$(cat "$log.rc")"
	if [ "$rc" -ne 0 ]; then
		echo "check.sh: go test $* failed:" >&2
		grep -E '^[[:space:]]*--- FAIL:|^FAIL|^panic:' "$log" >&2 || true
		exit "$rc"
	fi
}

go vet ./...
go build ./...
gotest ./...
if [ "${FULL_RACE:-0}" = "1" ]; then
	gotest -race ./...
else
	gotest -race -short ./...
fi
# Benchmark smoke: every Go benchmark runs exactly once, so a benchmark
# that no longer builds or fails its own checks (each b.Fatal()s on error)
# breaks the gate. No timing is compared here; the perfbench module and
# BENCHMARK.json are the repo's benchmark record.
gotest -run '^$' -bench . -benchtime 1x ./...
echo "check.sh: all gates passed"
