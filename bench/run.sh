#!/usr/bin/env bash
# Builds the benchmark (its own Go module, next to this script) and runs it
# from the checkout root, passing every argument through. The Go build
# cache, the binaries, and everything a run writes stay under .bench_build/
# in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
