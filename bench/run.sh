#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload yield-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, temp files, the binary, span files, scratch stores) stays under
# .bench_build/ in the current directory, and no module is downloaded.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath/pkg/mod"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

# The benchmark is its own module (bench/go.mod) that replaces chipletqc
# with the parent directory, so the build fails when the sources are absent.
(cd "$root/bench" && go build -o "$out/chipletqc-bench" .)
exec "$out/chipletqc-bench" "$@"
