#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and, through the
# replace directive in go.mod, the product packages at this checkout) into
# .bench_build/ and runs it. Everything the toolchain and the run write stays
# inside the checkout: build cache, temporary files, module path, and the
# toolchain's own counters (it keeps those under the user configuration
# directory).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bess-benchmark" .)
exec "$build/bess-benchmark" -dir "$build" -out "$here/out" "$@"
