#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes stays inside the checkout, under
# .bench_build/; arguments are passed through to the binary.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters land here, not in $HOME
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go build -C bench -o "$build/hetpnoc-bench" . >&2
exec "$build/hetpnoc-bench" "$@"
