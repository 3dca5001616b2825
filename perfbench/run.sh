#!/usr/bin/env bash
# Builds wccserve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload giant-merging --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/wccserve" ./cmd/wccserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
