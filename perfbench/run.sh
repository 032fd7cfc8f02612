#!/usr/bin/env bash
# Builds the benchmark and the cmod daemon from the checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload edit-loop --seed 1 --seconds 33 --trace 0
#
# Run from the repository root. Everything the build and the runs
# leave behind goes under .bench_build/perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Keep the go command's cache, module and telemetry files in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/cmod" cmo/cmd/cmod)
exec "$out/perfbench" -out "$out" -cmod "$out/cmod" "$@"
