#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fabric-sweep --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build/ there; the build fails (and
# the script exits non-zero) when the repository's own sources are absent.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
