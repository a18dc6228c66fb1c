#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the arguments given, from the checkout's root:
#
#   bash perfbench/run.sh --workload native --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, temp files)
# stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
