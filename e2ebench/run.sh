#!/usr/bin/env bash
# Builds the benchmark and the maestro-serve binary it drives from the
# sources of this checkout, then runs one workload. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload local --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/maestro-serve" ./cmd/maestro-serve
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -serve-bin "$out/maestro-serve" -workdir "$out" "$@"
