#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build and the run write
# (Go build cache, binary, WAL files) stays under .bench_build/ in the
# checkout; span files of traced runs go to benchmark/out/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

go build -C benchmark -o "$build/decaf-benchmark" .
exec "$build/decaf-benchmark" -dir "$build/run" "$@"
