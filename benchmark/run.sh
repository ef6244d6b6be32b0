#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build leaves behind (binary, Go build cache)
# lands under .bench_build/ at the root of the checkout, so the benchmark
# reads and writes only there and under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/declust-bench" .
exec "$build/declust-bench" -scratch "$build" -out "$here/out" -bounds "$root/BENCHMARK.json" "$@"
