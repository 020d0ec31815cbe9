#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload served-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
