#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-load --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and everything the run writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
