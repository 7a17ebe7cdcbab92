#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go build cache included, so nothing is written outside the
# checkout) and runs it with the arguments given. BENCHMARK.json names this
# script as the command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, module cache, work
# directories, its telemetry counters) goes under $build; nothing is fetched.
# The build asks no repository for a revision to stamp: the driver's checkout
# is none, and one it merely sits inside may refuse. The header's commit is
# what git says here, when it says anything.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
commit="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -buildvcs=false \
	-ldflags "-X main.revision=$commit" -o "$build/plasma-benchmark" .)
exec "$build/plasma-benchmark" -out "$here/out" "$@"
