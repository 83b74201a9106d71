#!/usr/bin/env bash
# Builds doctbench from source and runs it with the given arguments, from the
# root of a checkout. Everything the Go toolchain and the benchmark write —
# build cache, temporary files, the binary, span and result files — stays
# under bench/.build in the checkout (bench/.gitignore names it).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench/doctbench ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (go.mod not found)" >&2
	exit 2
fi

build="$PWD/bench/.build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto

go build -o "$build/doctbench" ./bench/doctbench
exec "$build/doctbench" "$@"
