#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload forum-read --seed 1 --seconds 35 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes
# stays under .bench_build/ in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/sqldb || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a resin checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
