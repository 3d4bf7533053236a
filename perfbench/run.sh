#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it; run
# it from the repository root with the benchmark's flags, for example
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# files) stays under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
