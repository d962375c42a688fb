#!/usr/bin/env bash
# check.sh — the canonical tier-1+ verification gate for this repo.
#
# Every PR must pass this end-to-end. It layers, in order:
#   1. go build   — everything compiles
#   2. go vet     — the toolchain's own static checks
#   3. cmd/lint   — the repo-specific determinism/concurrency/allocation
#                   analyzers (floatcmp, rngdiscipline, maporder,
#                   errcheck-lite, synccheck, hotalloc, ifaceescape,
#                   mutexcopy, valuerecv; see DESIGN.md "Static analysis
#                   & determinism invariants")
#   4. cmd/lint -escapes — the compiler escape-analysis gate: heap
#      escapes inside //repro:hotpath functions must match the committed
#      ESCAPES.json baseline exactly (regenerate deliberate cold-path
#      additions with `go run ./cmd/lint -escapes -write`)
#   5. go test    — the full unit/integration suite
#   6. go test -race over the concurrency substrate: the parallel
#      worker pool, the simulators that fan out onto it (including the
#      cluster simulator's parallel workload generation), the core
#      package whose shared-cursor scoring runs on worker blocks, the
#      DP package whose verify/fallback switches are process-wide
#      atomics exercised from concurrent solves, and the serving tier
#      (service backend/frontend, shard ring, tenant limiter, client).
#      It runs at GOMAXPROCS 1 and 4 (-cpu 1,4), so contracts that
#      depend on the core count hold on every host, not just the one
#      that last ran the gate.
#   7. loadgen smoke — a one-to-two-second in-process fleet run
#      (cmd/loadgen -smoke) asserting the sharded serving invariants:
#      cold misses == unique specs (deterministic routing) and a
#      warmed Table-1 fleet serves at a 100% hit ratio.
#   8. clustersim smoke — the simulator's built-in gate (cmd/clustersim
#      -smoke): a small (strategy × shape × replicate) sweep matrix must
#      be bit-identical for 1, 4, and 16 workers, and the streaming
#      quantile sketch must agree with exact sorted-sample quantiles
#      within its documented error bound.
#   9. fuzz smoke — a few seconds of the cluster ledger/backfill/event-
#      core fuzz targets and the distribution-spec parser's fuzz target
#      on top of their committed corpora (testdata/fuzz), so a freshly
#      broken invariant is found here, not in a nightly.
#
# Usage: scripts/check.sh [--bench] [--compare]
#
# --bench additionally runs scripts/bench.sh after the gates pass,
# refreshing BENCH.json with the scoring-benchmark numbers. --compare
# instead re-runs the benchmarks and fails if any ns/op regressed by
# more than 25% against the committed BENCH.json. Both are opt-in so
# the default gate stays fast.
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
run_compare=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --compare) run_compare=1 ;;
    *) echo "check.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go run ./cmd/lint ./..."
go run ./cmd/lint ./...

echo "== go run ./cmd/lint -escapes ./..."
go run ./cmd/lint -escapes ./...

echo "== go test ./..."
go test ./...

echo "== go test -race -cpu 1,4 (concurrency substrate)"
go test -race -cpu 1,4 ./internal/parallel/... ./internal/simulate/... ./internal/queuesim/... ./internal/cluster/... ./internal/lru/... ./internal/service/... ./internal/core/... ./internal/dp/... ./internal/shard/... ./internal/tenant/... ./client/...

echo "== loadgen smoke (sharded serving invariants)"
go run ./cmd/loadgen -smoke

echo "== clustersim smoke (sweep determinism + sketch accuracy)"
go run ./cmd/clustersim -smoke

echo "== fuzz smoke (cluster ledger + backfill + event core, distribution parser)"
go test -run '^$' -fuzz '^FuzzLedger$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzBackfill$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzEventCore$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzParseDistribution$' -fuzztime 3s .

echo "check.sh: all gates passed"

if [ "$run_bench" = 1 ]; then
  echo "== scripts/bench.sh"
  scripts/bench.sh
fi

if [ "$run_compare" = 1 ]; then
  echo "== scripts/bench.sh --compare"
  scripts/bench.sh --compare
fi
