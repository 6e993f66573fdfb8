#!/usr/bin/env bash
# Builds cmd/servd and the benchmark program from this checkout, then
# runs it with the given arguments, for example:
#
#   bash servbench/run.sh --workload table2_flow --seed 1 --seconds 15 --trace 0
#
# Binaries, the Go build cache and every run's scratch files stay under
# .bench_build/ at the root of the checkout; nothing is fetched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"

# With telemetry in its default "local" mode the go command forks a
# detached sidecar process that outlives the build; turning it off here
# keeps the go command from starting any process it does not wait for.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$root" && go build -o "$out/bin/servd" ./cmd/servd)
(cd "$here" && go build -o "$out/bin/servbench" .)
exec "$out/bin/servbench" -servd "$out/bin/servd" -work "$out" "$@"
