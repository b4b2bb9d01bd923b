#!/usr/bin/env bash
# Builds the benchmark and the gossipq binary from the source tree this
# script sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ at the root
# of the tree, so a run reads and writes nothing outside it.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$bench_dir" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/gossipq" ./cmd/gossipq)

exec "$build/perfbench" -gossipq "$build/gossipq" "$@"
