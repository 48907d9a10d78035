#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps everything the Go toolchain
# writes (build cache, temporary files, telemetry) under .bench_build in
# the checkout, builds the benchmark package and runs it from the root of
# the checkout with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/indice-bench" .
cd "$root"
exec "$build/indice-bench" "$@"
