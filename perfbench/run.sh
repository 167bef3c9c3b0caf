#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build products and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# Keep every file the go command writes (build cache, module cache,
# telemetry) inside the checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
