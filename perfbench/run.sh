#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload interval-large --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build products, the Go build cache and
# the span files stay under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
