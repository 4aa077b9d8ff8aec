#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload eval-cold --seed 1 --seconds 26 --trace 0
#   bash bench/run.sh -repeat 5 -out .bench_build/runs.json
#
# Run it from the root of the repository. Everything the build and the
# run write stays under .bench_build/ there: the binary, the Go build
# cache, scratch directories and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

# The commit goes into the host record; outside a git checkout it is
# "unknown". VCS stamping stays off: it fails the build when the checkout
# sits inside a work tree git refuses to read.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi
(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/bench" .)
exec "$build/bench" "$@"
