#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; the build and its Go cache live in
# .bench_build there, so the benchmark reads and writes nothing else.
set -euo pipefail
bench_dir=$(cd "$(dirname "$0")" && pwd)
build_dir="$PWD/.bench_build"
mkdir -p "$build_dir/tmp"
export GOCACHE="$build_dir/gocache" GOMODCACHE="$build_dir/gomodcache" GOTMPDIR="$build_dir/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench_dir" && go build -o "$build_dir/benchmark" .)
exec "$build_dir/benchmark" "$@"
