#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build/ (Go's build cache and temp files too, so nothing is written
# outside the checkout), then run it from the checkout root with the
# caller's arguments. With no arguments it runs the whole suite.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# GOPATH and XDG_CONFIG_HOME keep the toolchain's module cache, env file and
# telemetry counters inside the checkout as well; nothing is downloaded.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/dmpbenchmark" .
cd "$root"
exec "$build/dmpbenchmark" "$@"
