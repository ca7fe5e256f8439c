#!/usr/bin/env bash
# Builds rtetherd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash rtbench/run.sh --workload star_wire --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there, Go's build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/rtetherd" ./cmd/rtetherd
(cd rtbench && go build -o "$out/rtbench" .)
exec "$out/rtbench" -daemon "$out/rtetherd" -workdir "$out" "$@"
