#!/usr/bin/env bash
# Builds the live end-to-end benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash livebench/run.sh --workload saturate-b100 --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, replica data
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/livebench/go.mod" ]]; then
	echo "livebench: run from the repository root (go.mod, internal/ and livebench/ are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" TMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/livebench" && go build -o "$out/livebench" .)
exec "$out/livebench" -data "$out" "$@"
