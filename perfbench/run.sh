#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the
# results.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in the
# checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/results" "$@"
