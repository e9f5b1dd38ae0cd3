#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the go command writes - build cache, temporary files,
# the binary - stays under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
