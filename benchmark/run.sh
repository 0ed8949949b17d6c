#!/bin/bash
# Builds the benchmark into .bench_build/ inside the checkout (Go's build
# cache and module cache are kept there too, so nothing is written outside
# it) and runs it with the driver's arguments:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
# The benchmark is its own module beside the program's; it fails to build,
# and this script exits non-zero, where the program's sources are absent.
go -C "$root/benchmark" build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" -root . "$@"
