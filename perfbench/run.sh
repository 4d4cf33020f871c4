#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it; every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload paper-fmatrix --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build outputs and the Go build
# cache stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a broadcastcc checkout (no go.mod/internal here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
