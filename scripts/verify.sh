#!/bin/sh
# verify.sh — the repo's verification gauntlet, in tiers.
#
# Tier 1 (fast, required for every change):
#   build + full test suite, then the benchmark module's tests
#   (benchmark/ is a module of its own that binds to this one's API —
#   parallel.RunHybrid/Config/Result, the method sets it embeds — and
#   ./... does not reach it)
# Tier 2 (static + concurrency, required for changes touching hot paths
#   or anything concurrent):
#   go vet (both modules) + race detector across the whole module
# Tier 3 (repo-native static analysis, required for every change):
#   grapelint — the intraprocedural suite (noalloc/deterministic/
#   nodeprecated/gfixedboundary/goroutinejoin) plus the interprocedural
#   closures over the module call graph (noallocdeep/hotblock/
#   puritydeep) and the stale-suppression audit (DESIGN.md §7).
#   Findings fail the gauntlet.
# Tier 4 (fuzz, full gauntlet only):
#   the gfixed differential fuzz targets, 10s each — the rounding and
#   accumulation hot paths against their references.
#
# Usage: scripts/verify.sh [tier]
#   scripts/verify.sh       # run all tiers (the default gauntlet)
#   scripts/verify.sh 1     # tier 1 only
set -eu
cd "$(dirname "$0")/.."

tier="${1:-all}"

if [ "$tier" = 1 ] || [ "$tier" = all ]; then
	echo "== tier 1: build + tests =="
	go build ./...
	go test ./...
	go test -C benchmark ./...
fi

if [ "$tier" = 2 ] || [ "$tier" = all ]; then
	echo "== tier 2: vet + race =="
	go vet ./...
	go vet -C benchmark ./...
	go test -race ./...
fi

if [ "$tier" = 3 ] || [ "$tier" = all ]; then
	echo "== tier 3: grapelint =="
	go run ./cmd/grapelint ./...
fi

if [ "$tier" = 4 ] || [ "$tier" = all ]; then
	echo "== tier 4: fuzz (10s per target) =="
	go test -run '^$' -fuzz '^FuzzRound$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzAccumAdd$' -fuzztime=10s ./internal/gfixed/
fi

echo "verify: OK ($tier)"
