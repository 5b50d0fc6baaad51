#!/usr/bin/env bash
# Entry point of the benchmark (the command in BENCHMARK.json): builds the
# program from source into .bench_build/ at the checkout root — Go's build
# cache and temporary files included, so nothing is written outside the
# checkout — and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" -out "$here/out" "$@"
