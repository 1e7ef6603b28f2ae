#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. The binary and every Go cache live in
# .bench_build/ at that root, so nothing is written outside the checkout.
#
#   bash benchmark/run.sh --workload zdev8-freqmine --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/zdbench" .)
cd "$root"
exec "$out/zdbench" "$@"
