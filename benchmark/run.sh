#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments. The
# Go build cache and the binary live in .bench_build/ inside the checkout, so
# a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/readys-benchmark" .) >&2
cd "$root"
exec "$build/readys-benchmark" "$@"
