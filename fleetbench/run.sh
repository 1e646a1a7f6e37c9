#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it.
#
#   bash fleetbench/run.sh --workload viral-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, temporary files, the binary,
# the fleet's data directories, and trace output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "$root/fleetbench" && go build -o "$build/fleetbench" .)
# The revision, when the checkout is itself a git work tree.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi
exec "$build/fleetbench" --commit "$commit" --out "$build/fleetbench-out" "$@"
