#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash benchmark/run.sh --workload campaign-ior --seed 1 --seconds 15 --trace 0
# Everything the build writes (Go build cache, binary, spans) stays in
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$(dirname "$0")" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
