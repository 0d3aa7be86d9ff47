#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload fig7a-single --seed 1 --seconds 10 --trace 0
# Every build artifact, cache and profile stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/tmp" "$work/home"

export GOCACHE="$work/gocache"
export GOTMPDIR="$work/tmp"
export GOMODCACHE="$work/gomodcache"
export GOPATH="$work/gopath"
export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home/.config"
export XDG_CACHE_HOME="$work/home/.cache"
export PPROF_TMPDIR="$work/tmp"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" "$@"
