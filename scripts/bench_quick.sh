#!/bin/sh
# bench_quick.sh — allocation-regression guard for the hot path.
#
# Runs BenchmarkThroughput_EndToEnd a handful of iterations and fails if
# allocs/op or B/op exceeds its checked-in budget (bench_budget.txt: the
# first number is allocs/op, the second B/op). Both come from -benchmem
# as exact runtime counters, not timings, so a short run is
# deterministic enough to gate CI on.
set -eu

cd "$(dirname "$0")/.."

budget=$(grep -v '^#' bench_budget.txt | grep -o '[0-9][0-9]*' | head -n1)
bytes_budget=$(grep -v '^#' bench_budget.txt | grep -o '[0-9][0-9]*' | sed -n 2p)
if [ -z "$budget" ] || [ -z "$bytes_budget" ]; then
    echo "bench-quick: bench_budget.txt needs an allocs/op and a B/op budget" >&2
    exit 2
fi

out=$(${GO:-go} test -run '^$' -bench 'BenchmarkThroughput_EndToEnd' -benchmem -benchtime 5x .)
echo "$out"

# metric UNIT prints the number -benchmem reports before UNIT.
metric() {
    echo "$out" | awk -v unit="$1" '/BenchmarkThroughput_EndToEnd/ { for (i = 1; i < NF; i++) if ($(i+1) == unit) print $i }'
}
allocs=$(metric allocs/op)
bytes=$(metric B/op)
if [ -z "$allocs" ] || [ -z "$bytes" ]; then
    echo "bench-quick: could not parse allocs/op and B/op from benchmark output" >&2
    exit 2
fi

echo "bench-quick: ${allocs} allocs/op (budget ${budget}), ${bytes} B/op (budget ${bytes_budget})"
fail=0
if [ "$allocs" -gt "$budget" ]; then
    echo "bench-quick: FAIL — BenchmarkThroughput_EndToEnd exceeded the allocation budget." >&2
    fail=1
fi
if [ "$bytes" -gt "$bytes_budget" ]; then
    echo "bench-quick: FAIL — BenchmarkThroughput_EndToEnd exceeded the byte budget." >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "bench-quick: if this increase is intentional, update bench_budget.txt in the same change." >&2
    exit 1
fi
echo "bench-quick: OK"
