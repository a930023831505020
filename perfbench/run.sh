#!/usr/bin/env bash
# Builds kcored and the benchmark from the sources of this checkout, then
# runs the benchmark with the given arguments (see main.go for them).
# Every build product, the Go build cache included, stays under the
# checkout's build directory, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go build -o "$build/kcored" ./cmd/kcored >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -bin "$build" "$@"
