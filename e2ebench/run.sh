#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload wire-mix --seed 1 --seconds 15 --trace 0
#
# Go's build cache, module cache and temporary files are kept under
# .bench_build/ so the run reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
