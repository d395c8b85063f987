package chip

import (
	"math"
	"testing"

	"grape6/internal/xrand"
)

// mergedRanges evaluates is against [0, ch.NJ()) one range at a time — the
// range starting at lo is next(lo) slots long — and merges the per-range
// partials, as the board does with its spans and pages.
func mergedRanges(ch *Chip, is []IParticle, eps float64, next func(lo int) int) []Partial {
	got, stripe := make([]Partial, len(is)), make([]Partial, len(is))
	for q := range got {
		got[q].Init(ch.Config().Format, is[q].ExpAcc, is[q].ExpJerk, is[q].ExpPot)
	}
	for lo := 0; lo < ch.NJ(); {
		hi := lo + next(lo)
		ch.ForceBatchRangeInto(stripe, 0, is, eps, lo, hi)
		for q := range got {
			got[q].Merge(&stripe[q])
		}
		lo = hi
	}
	return got
}

// oddBatches are the batch lengths the invariance tests walk: the hardware
// i-batch and a short even one, and the odd ones whose last i-particle is
// left without a partner and streams each range as both lanes of the kernel,
// one half each (ForceBatchRangeInto).
var oddBatches = []int{48, 16, 1, 3, 47, 49}

// TestForceTileInvariance is the partition bit-exactness property that
// striping, paging and the lone particle's half ranges rest on: the SAME
// batch evaluated over [0, n) cut into consecutive ranges of every length —
// degenerate (1, where a lone i-particle's half ranges are empty), prime
// (7), the hardware i-batch (48), exactly N, larger than N, and a handful
// of random lengths — and merged must produce bit-identical partials,
// because a cut only reorders exact integer accumulations (Section 3.4
// partition invariance applied within one chip). Every batch length is held
// against one whole-range reference of the longest, so an i-particle's
// partial must not depend on whether it found a partner either.
func TestForceTileInvariance(t *testing.T) {
	const n, maxNI = 1024, 49
	ch, is := benchChip(t, n, maxNI)
	eps := 1.0 / 64

	want := make([]Partial, maxNI)
	ch.ForceBatchInto(want, 0, is, eps)

	tiles := []int{1, 7, 48, 511, n, 3 * n}
	rng := xrand.New(99)
	for trial := 0; trial < 6; trial++ {
		tiles = append(tiles, 1+int(rng.Uint64()%uint64(n+64)))
	}
	for _, tile := range tiles {
		for _, ni := range oddBatches {
			got := mergedRanges(ch, is[:ni], eps, func(int) int { return tile })
			for q := range got {
				if got[q] != want[q] {
					t.Fatalf("ranges of %d, batch of %d: partial %d differs from whole-range reference", tile, ni, q)
				}
			}
		}
	}
}

// TestForceRandomPartitionInvariance streams the j-range as a random
// partition of stripes through ForceBatchRangeInto and merges the
// per-stripe partials: the merged result must match the whole-memory pass
// bit for bit, whatever the cut points — the property that makes both
// j-striping across cores and paging numerically free.
func TestForceRandomPartitionInvariance(t *testing.T) {
	const n, maxNI = 512, 49
	ch, is := benchChip(t, n, maxNI)
	eps := 1.0 / 64

	want := make([]Partial, maxNI)
	ch.ForceBatchInto(want, 0, is, eps)

	rng := xrand.New(4242)
	for _, ni := range oddBatches {
		for trial := 0; trial < 16; trial++ {
			got := mergedRanges(ch, is[:ni], eps, func(int) int { return 1 + int(rng.Uint64()%uint64(n/4)) })
			for q := range got {
				if got[q] != want[q] {
					t.Fatalf("batch of %d, trial %d: merged random-partition partial %d differs from whole pass", ni, trial, q)
				}
			}
		}
	}
}

// TestForceBatchRangeIntoReversedRange pins the empty-range contract:
// lo > hi, a range wholly past the memory, and lo == hi — for an even batch
// and for a lone i-particle, whose halves would otherwise be sliced at lo —
// all clamp to an empty range: initialised partials, no pairwise work, a
// cycle count for zero j-particles, never a panic or a negative loop bound.
func TestForceBatchRangeIntoReversedRange(t *testing.T) {
	ch, is := benchChip(t, 64, 4)
	for _, tc := range []struct{ ni, lo, hi int }{
		{4, 50, 10},
		{3, ch.NJ() + 5, ch.NJ() + 9},
		{1, 20, 20},
	} {
		is := is[:tc.ni]
		dst := make([]Partial, len(is))
		// Dirty the slab first so "initialised empty" is observable.
		ch.ForceBatchInto(dst, 0, is, 1.0/64)

		cycles := ch.ForceBatchRangeInto(dst, 0, is, 1.0/64, tc.lo, tc.hi)
		if want := ch.Config().BatchCycles(len(is), 0); cycles != want {
			t.Errorf("%d over [%d, %d): cycles %d, want empty-range %d", tc.ni, tc.lo, tc.hi, cycles, want)
		}
		for q := range dst {
			if dst[q].Acc[0].Sum != 0 || dst[q].Pot.Sum != 0 {
				t.Errorf("%d over [%d, %d): partial %d accumulated pairs", tc.ni, tc.lo, tc.hi, q)
			}
			if dst[q].NN != -1 || !math.IsInf(dst[q].NND2, 1) {
				t.Errorf("%d over [%d, %d): partial %d NN state %d/%v, want virgin -1/+Inf", tc.ni, tc.lo, tc.hi, q, dst[q].NN, dst[q].NND2)
			}
		}
	}
}

// BenchmarkForceBatch48x64k is BenchmarkForceBatch48 at full memory depth:
// 48 i-particles against a 65536-deep j-memory, the shape where the j-hot
// set (4 MB) no longer fits in cache.
func BenchmarkForceBatch48x64k(b *testing.B) {
	ch, is := benchChip(b, 65536, 48)
	dst := make([]Partial, len(is))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.ForceBatchInto(dst, 0, is, 1.0/64)
	}
}
