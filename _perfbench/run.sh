#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload hot_post --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and span files stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
