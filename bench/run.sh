#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ of the checkout this
# script sits in and runs it there, passing every argument on. The Go build
# cache and the binary live under .bench_build/ so a run reads and writes
# only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/coignbench" .
exec "$out/coignbench" -dir "$out" "$@"
