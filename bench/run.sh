#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout's root. Everything the go tool writes — the binary, its build
# cache, temporary files, its own configuration and counters — stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -C bench -o "$build/akb-bench" .
exec "$build/akb-bench" "$@"
