#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# inside the checkout (the Go build cache and temporary files included, so
# nothing is written outside it) and runs it from the checkout's root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The first call in a checkout compiles the module and takes a minute;
# later calls find everything cached.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
# the go command keeps its telemetry counters in the user's config directory
export XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/gretabench" .)
cd "$root"
exec "$build/gretabench" "$@"
