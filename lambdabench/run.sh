#!/usr/bin/env bash
# Builds lambdabench from this checkout's sources and runs it with the given
# arguments (see README.md). Everything the build and the run write stays
# under .bench_build/ at the checkout root: the Go build cache, the binary,
# the daemon's data directory and the trace files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/data"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go -C "$root/lambdabench" build -o "$out/lambdabench" .
exec "$out/lambdabench" -data-dir "$out/data" "$@"
