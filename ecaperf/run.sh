#!/usr/bin/env bash
# Builds the ECA engine benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash ecaperf/run.sh --workload fanout --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. The build cache, the binary, temp
# data directories and span dumps all stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go -C "$src" build -o "$out/ecaperf" .
exec "$out/ecaperf" "$@"
