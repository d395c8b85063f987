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
#   gofmt over every tracked *.go outside testdata/ (analyzer fixtures are
#   laid out by hand), go vet (both modules) + race detector across the
#   whole module
# Tier 3 (repo-native static analysis, required for every change):
#   grapelint — three package-scoped checks (nodeprecated/
#   gfixedboundary/goroutinejoin), three closures over the module call
#   graph that check their roots and everything they reach (noalloc/
#   hotblock/deterministic), and the stale-suppression audit
#   (DESIGN.md §7).
#   Findings fail the gauntlet. Then the inlining contract of the force
#   kernel, which no analyzer sees because it is the compiler's decision:
#   gfixed's tame primitives must report "can inline", and the compiled
#   chip.forceTile (the two-lane pair loop) and chip.predictParticle must
#   contain no CALL into gfixed, and RoundTame inlined on arm64 must not
#   fuse a multiply into its split (DESIGN.md §6).
# Tier 4 (fuzz, full gauntlet only):
#   the differential fuzz targets, 10s each — gfixed's rounding and
#   accumulation against their references, the chip's call-free pair loop
#   and predictor against the exact per-stage forms — and the decoders of
#   outside bytes (sched.ReadTrace, snapshot.Read), from their committed
#   corpora under testdata/fuzz/.
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
	echo "== tier 2: gofmt + vet + race =="
	unformatted="$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"
	[ -z "$unformatted" ] || { echo "gofmt -l:"; echo "$unformatted"; exit 1; }
	go vet ./...
	go vet -C benchmark ./...
	go test -race ./...
fi

if [ "$tier" = 3 ] || [ "$tier" = all ]; then
	echo "== tier 3: grapelint =="
	go run ./cmd/grapelint ./...

	echo "== tier 3: kernel inlining contract =="
	inl="$(go build -gcflags=-m ./internal/gfixed 2>&1)"
	for fn in 'Rounder.RoundTame' 'Untame' 'AddTame' '(*Accum).Scale'; do
		echo "$inl" | grep -qF "can inline $fn" || {
			echo "gfixed.$fn is no longer inlinable: every use in chip's kernels is now a call"
			echo "$inl" | grep -F "$fn" || true
			exit 1
		}
	done
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go test -c -o "$tmp/chip.test" ./internal/chip
	# $1: the symbol as objdump prints it, $2: the same as a regexp.
	call_free() {
		go tool objdump -s "$2" "$tmp/chip.test" >"$tmp/sym.s"
		grep -qF "chip.$1(SB)" "$tmp/sym.s" || { echo "no disassembly for chip.$1: renamed?"; exit 1; }
		if grep 'CALL' "$tmp/sym.s" | grep 'internal/gfixed'; then
			echo "chip.$1 calls into gfixed: its stages must be call-free"
			exit 1
		fi
	}
	call_free '(*Chip).forceTile' 'chip\.\(\*Chip\)\.forceTile$'
	call_free 'predictParticle' 'chip\.predictParticle$'
	# RoundTame's fusion barrier, on the target whose compiler fuses x*y±z
	# (amd64's fuses only math.FMA): TestRoundTameVeltkamp rounds products
	# through the inlined split, and a missing float64() conversion shows in
	# its arm64 build as a fused multiply-add.
	GOARCH=arm64 go test -c -o "$tmp/gfixed.arm64.test" ./internal/gfixed
	go tool objdump -s 'gfixed\.TestRoundTameVeltkamp$' "$tmp/gfixed.arm64.test" >"$tmp/sym.s"
	grep -qF 'TestRoundTameVeltkamp(SB)' "$tmp/sym.s" || { echo "no arm64 disassembly for TestRoundTameVeltkamp: renamed?"; exit 1; }
	if grep -E 'FN?M(ADD|SUB)D' "$tmp/sym.s"; then
		echo "gfixed.Rounder.RoundTame fuses on arm64: the Veltkamp split needs its float64() conversions"
		exit 1
	fi
fi

if [ "$tier" = 4 ] || [ "$tier" = all ]; then
	echo "== tier 4: fuzz (10s per target) =="
	go test -run '^$' -fuzz '^FuzzRound$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzAccumAdd$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzAddTame$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzForceTile$' -fuzztime=10s ./internal/chip/
	go test -run '^$' -fuzz '^FuzzPredictParticle$' -fuzztime=10s ./internal/chip/
	go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime=10s ./internal/sched/
	# Minimizing an interesting 1.5 KB snapshot stream at the default 60 s
	# cap would eat the whole 10 s budget; 2 s leaves time to fuzz.
	go test -run '^$' -fuzz '^FuzzSnapshotRead$' -fuzztime=10s -fuzzminimizetime=2s ./internal/snapshot/
fi

echo "verify: OK ($tier)"
