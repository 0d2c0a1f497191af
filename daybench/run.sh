#!/usr/bin/env bash
# Builds the day benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash daybench/run.sh --workload event-paper-day --seed 42 --seconds 40 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, and
# the traced runs' spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/daybench" && go build -o "$out/daybench" .)
exec "$out/daybench" "$@"
