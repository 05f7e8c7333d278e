#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload inband-fresh --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and run files stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOWORK=off GOFLAGS= GOENV=off GOTOOLCHAIN=local CGO_ENABLED=0 GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
