#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Every build and toolchain cache lives under .bench_build, so the run
# reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
