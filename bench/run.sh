#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build and module caches, the
# binary, the benchmark's scratch files and any trace it writes all stay
# under .bench_build/ in the current directory, and nothing is fetched
# over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -workdir "$out/work" "$@"
