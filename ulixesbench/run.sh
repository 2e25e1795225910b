#!/usr/bin/env bash
# Builds ulixesd and ulixesbench from this checkout, then runs ulixesbench
# with the given arguments. Run it from the repository root:
#
#   bash ulixesbench/run.sh --workload warm-repeat --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in the
# repository root (the Go build cache included), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -o "$out/ulixesd" ./cmd/ulixesd
(cd ulixesbench && go build -o "$out/ulixesbench" .)
exec "$out/ulixesbench" -ulixesd "$out/ulixesd" -out "$out" "$@"
