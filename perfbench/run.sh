#!/usr/bin/env bash
# Builds dtserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, the go command forks a detached child that outlives
# this script; turn it off so the benchmark leaves no process behind.
printf 'off' > "$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/dtserve" ./cmd/dtserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --dtserve "$out/bin/dtserve" --workdir "$out" "$@"
