#!/usr/bin/env bash
# Builds the benchmark and the healers binary from this checkout's
# source, then runs the benchmark with the given flags:
#
#   bash bench/run.sh -workload inject-cold -seed 1 -seconds 25 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, both binaries, scratch files and the
# Chrome traces of traced runs. The build never reaches for the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

cd "$root/bench"
go build -o "$out/bench" .
go build -o "$out/healers" healers/cmd/healers
cd "$root"
exec "$out/bench" -healers "$out/healers" "$@"
