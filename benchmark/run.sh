#!/usr/bin/env bash
# Builds the harness and the two daemons procs-unix-flood drives, then runs
# the harness from the checkout root. Everything built, cached or written
# lands under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
# Nothing is downloaded; the module cache only has to have a place.
export GOMODCACHE="$out/gomod"
(cd benchmark && go build -o "$out/bin/benchmark" .) >&2
go build -o "$out/bin/" ./cmd/gossipd ./cmd/gossipctl >&2
exec "$out/bin/benchmark" "$@"
