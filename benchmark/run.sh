#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout, then run it with the
# arguments given. Everything the Go toolchain writes (build cache,
# module cache, the binary) stays under .bench_build in the checkout.
# People can skip this and use `go run ./benchmark ...` directly.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
