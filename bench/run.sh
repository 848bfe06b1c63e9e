#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the repository:
#
#   bash bench/run.sh --workload session --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, temporary
# files, settings) stays under .bench_build in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/pufatt-bench" .)
cd "$root"
exec "$build/pufatt-bench" "$@"
