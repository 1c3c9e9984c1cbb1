#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sweep-membound --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
