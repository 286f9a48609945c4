#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source and
# runs it, keeping everything the build and the run write — Go's build cache,
# temp files, WAL directories, trace output — under .bench_build in the
# checkout, so nothing outside the checkout is touched. The first build in a
# fresh checkout compiles the standard library too (about a minute on two
# cores); later runs hit the cache and start in about a second.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -buildvcs=false -o "$build/oar-benchmark" ./benchmark
exec "$build/oar-benchmark" "$@"
