#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and trace files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. No module is fetched: the benchmark depends only on the
# repository's own packages.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
