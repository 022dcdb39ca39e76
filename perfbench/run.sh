#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload cosmo-k1 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# go build cache, the binary, trace files and per-run scratch data.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
