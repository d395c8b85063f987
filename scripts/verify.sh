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
#   grapelint — four analyzers: one package-scoped check
#   (gfixedboundary) and three closures over the module call graph that
#   check their roots and everything they reach (noalloc/hotblock/
#   deterministic), plus the stale-suppression audit (DESIGN.md §7).
#   Findings fail the gauntlet. Then the inlining contract of the force
#   kernel, which no analyzer sees because it is the compiler's decision:
#   gfixed's tame primitives must report "can inline", and the compiled
#   chip.forceTile (the two-lane pair loop) and chip.predictParticle must
#   contain no CALL into gfixed, and on arm64 neither RoundTame's split
#   nor forceTile, forcePair or Accum.Add may fuse a multiply-add
#   (DESIGN.md §6). Last, the assembly (the AVX2 loops direct.quadAVX2
#   and chip.tileAVX2, the CPUID probe) may touch an X or Y register only
#   with VEX-encoded instructions.
# Tier 4 (fuzz, full gauntlet only):
#   the differential fuzz targets, 10s each — gfixed's rounding and
#   accumulation against their references, the chip's call-free pair loop
#   (two Go lanes, and the four-lane AVX2 loop beside the Go path) and
#   predictor against the exact per-stage forms, the float64 kernel's
#   four-lane pass against EvalSkip per i-particle, forcecheck's drawn
#   cases through every force path against one chip — and the decoders of
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
	go run ./cmd/grapelint

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
	# The fusion barriers, on the target whose compiler fuses x*y±z
	# (amd64's fuses only math.FMA): every product the kernels round or add
	# goes through a float64() conversion, and a missing one shows in the
	# arm64 build as a fused multiply-add. TestRoundTameVeltkamp rounds
	# products through RoundTame's inlined Veltkamp split; forceTile inlines
	# AddTame as well.
	GOARCH=arm64 go test -c -o "$tmp/gfixed.arm64.test" ./internal/gfixed
	GOARCH=arm64 go test -c -o "$tmp/chip.arm64.test" ./internal/chip
	# $1: test binary, $2: the symbol as objdump prints it, $3: the same as a regexp.
	fuse_free() {
		go tool objdump -s "$3" "$tmp/$1" >"$tmp/sym.s"
		grep -qF "$2(SB)" "$tmp/sym.s" || { echo "no arm64 disassembly for $2: renamed?"; exit 1; }
		if grep -E 'FN?M(ADD|SUB)D' "$tmp/sym.s"; then
			echo "$2 fuses a multiply-add on arm64: a product needs its float64() conversion"
			exit 1
		fi
	}
	fuse_free gfixed.arm64.test 'gfixed.TestRoundTameVeltkamp' 'gfixed\.TestRoundTameVeltkamp$'
	fuse_free gfixed.arm64.test 'gfixed.(*Accum).Add' 'gfixed\.\(\*Accum\)\.Add$'
	fuse_free chip.arm64.test 'chip.(*Chip).forceTile' 'chip\.\(\*Chip\)\.forceTile$'
	fuse_free chip.arm64.test 'chip.(*Chip).forcePair' 'chip\.\(\*Chip\)\.forcePair$'

	echo "== tier 3: assembly is VEX-only =="
	# One legacy SSE instruction on an X or Y register inside an AVX2 loop
	# (a MOVQ CX, X14 once) costs an SSE/AVX transition per j: ~60 ns/pair
	# instead of ~4 in direct.quadAVX2, and every result stays
	# bit-identical, so no test sees it. The assembler's listing holds the
	# instructions as encoded (go tool objdump cannot decode VEX): in every
	# TEXT symbol of every .s file of the module, each instruction with an
	# X/Y operand must be a V mnemonic.
	: >"$tmp/asm.s"
	for f in $(git ls-files '*.s'); do
		go tool asm -S -p "grape6/$(dirname "$f")" -I "$(go env GOROOT)/pkg/include" \
			-o "$tmp/asm.o" "$f" >>"$tmp/asm.s"
	done
	want="$(git ls-files '*.s' | xargs cat | grep -c '^TEXT')"
	awk -F'\t' -v want="$want" '
		/^[^\t]/ { fn = ""; if ($0 ~ / STEXT/) { fn = $0; sub(/ .*/, "", fn); seen++ } next }
		fn != "" && $4 ~ /(^|[ ,(])[XY][0-9]+([ ,)]|$)/ && $3 !~ /^V/ {
			print fn ": " $0
			if (!(fn in bad)) { bad[fn] = 1; nbad++ }
		}
		END {
			if (seen != want) print "the listings hold " seen " TEXT symbols, the .s files " want
			for (f in bad) print f " has a non-VEX instruction on an X/Y register"
			exit nbad > 0 || seen != want
		}' "$tmp/asm.s"
fi

if [ "$tier" = 4 ] || [ "$tier" = all ]; then
	echo "== tier 4: fuzz (10s per target) =="
	go test -run '^$' -fuzz '^FuzzRound$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzAccumAdd$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzAddTame$' -fuzztime=10s ./internal/gfixed/
	go test -run '^$' -fuzz '^FuzzForceTile$' -fuzztime=10s ./internal/chip/
	go test -run '^$' -fuzz '^FuzzForceTileQuad$' -fuzztime=10s ./internal/chip/
	go test -run '^$' -fuzz '^FuzzPredictParticle$' -fuzztime=10s ./internal/chip/
	go test -run '^$' -fuzz '^FuzzEvalAllQuad$' -fuzztime=10s ./internal/direct/
	go test -run '^$' -fuzz '^FuzzForcePath$' -fuzztime=10s ./internal/forcecheck/
	go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime=10s ./internal/sched/
	# Minimizing an interesting 1.5 KB snapshot stream at the default 60 s
	# cap would eat the whole 10 s budget; 2 s leaves time to fuzz.
	go test -run '^$' -fuzz '^FuzzSnapshotRead$' -fuzztime=10s -fuzzminimizetime=2s ./internal/snapshot/
fi

echo "verify: OK ($tier)"
