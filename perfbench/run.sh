#!/usr/bin/env bash
# Builds lpserver and the benchmark program from the source tree in the
# current directory (the repository root), then runs the benchmark with
# the arguments given:
#
#   bash perfbench/run.sh --workload ingest|query|mixed --seed N --seconds S --trace 0|1
#
# Build outputs and the Go build cache stay under .bench_build/ so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lpserver" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/lpserver not found)" >&2
	exit 2
fi
go build -o "$out/lpserver" ./cmd/lpserver >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/lpserver" -workdir "$root/.bench_run" "$@"
