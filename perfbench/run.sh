#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, the go
# command's own config and telemetry) stays under .bench_build/ in the
# repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench-go"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
