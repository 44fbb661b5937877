#!/usr/bin/env bash
# Builds the benchmark and the schedd daemon from source inside the
# checkout, then runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload batch --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and every file a run writes live under
# $CARGO_TARGET_DIR (default .bench_build), so a run touches nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin" "$out/run" "$out/home"

# The go command's caches, temporary files and telemetry all stay under $out.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
go build -o "$out/bin/schedd" ./cmd/schedd

exec "$out/bin/perfbench" -schedd "$out/bin/schedd" -workdir "$out/run" "$@"
