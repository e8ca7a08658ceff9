#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it; every file it writes stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload spectral --seed 1 --seconds 24 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
