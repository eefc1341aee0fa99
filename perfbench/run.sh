#!/usr/bin/env bash
# Builds the layered benchmark from the checkout it is run in and runs
# it. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload join-longlived --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Every build artifact and cache stays under .bench_build/ in the
# current directory; the program itself is built from source each run
# (the Go build cache makes repeat builds cheap).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
# Keep the toolchain's caches, config and telemetry inside the checkout,
# and build offline with the installed toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
