#!/usr/bin/env bash
# run.sh builds the benchmark suite and the dynmisd daemon from source,
# then runs the suite with the given arguments:
#
#   bash benchsuite/run.sh --workload engine-geo --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache, the Go tool's own state (GOPATH, telemetry) and the suite's run
# files stay under .bench_build/ (or under $CARGO_TARGET_DIR when that is
# set), so the run writes nothing outside the checkout. Build time is not
# part of any metric.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/run" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# Fails (and so stops the run) unless the repository's sources sit next
# to the benchmark directory: the suite module replaces dynmis with "../".
go -C "$root/benchsuite" build -o "$out/benchsuite" .
go -C "$root" build -o "$out/dynmisd" ./cmd/dynmisd

exec "$out/benchsuite" -dynmisd "$out/dynmisd" -scratch "$out/run" "$@"
