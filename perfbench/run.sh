#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the repository root: bash perfbench/run.sh --workload <name> ...
# The Go build cache and the binary live in .bench_build/ under the
# current directory, so a run writes nothing outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
go -C perfbench build -o "$root/.bench_build/bin/perfbench" .
exec "$root/.bench_build/bin/perfbench" "$@"
