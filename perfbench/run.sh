#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/
# in the checkout: the Go build cache, the binary, temporary stores
# and the span files of traced runs.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
tmp=$(mktemp -d "$out/tmp/run.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
TMPDIR="$tmp" "$out/perfbench" "$@"
