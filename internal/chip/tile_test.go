package chip

import (
	"fmt"
	"math"
	"testing"

	"grape6/internal/xrand"
)

// tiledChip loads js into a fresh chip configured with the given j-tile
// length.
func tiledChip(tb testing.TB, js []JParticle, tileJ int) *Chip {
	tb.Helper()
	cfg := Default
	cfg.TileJ = tileJ
	ch := New(cfg)
	if err := ch.LoadJ(js); err != nil {
		tb.Fatal(err)
	}
	return ch
}

// oddBatches are the batch lengths the invariance tests walk: the hardware
// i-batch and a short even one, and the odd ones whose last i-particle is
// left without a partner and streams each tile as both lanes of the kernel,
// one half each (ForceBatchRangeInto).
var oddBatches = []int{48, 16, 1, 3, 47, 49}

// TestForceTileInvariance is the cache-blocking bit-exactness property:
// the SAME batch evaluated under every j-tile size — degenerate (1, where a
// lone i-particle's half tiles are empty), prime (7), the hardware i-batch
// (48), exactly N, larger than N, and a handful of random sizes — must
// produce bit-identical partials, because tiling only reorders exact integer
// accumulations (Section 3.4 partition invariance applied within one chip).
// Every batch length is held against one reference of the longest, so an
// i-particle's partial must not depend on whether it found a partner either.
func TestForceTileInvariance(t *testing.T) {
	const n, maxNI = 1024, 49
	js, is := benchParticles(t, n, maxNI)
	eps := 1.0 / 64

	want := make([]Partial, maxNI)
	tiledChip(t, js, n).ForceBatchInto(want, 0, is, eps)

	tiles := []int{1, 7, 48, 511, n, 3 * n}
	rng := xrand.New(99)
	for trial := 0; trial < 6; trial++ {
		tiles = append(tiles, 1+int(rng.Uint64()%uint64(n+64)))
	}
	for _, tile := range tiles {
		ch := tiledChip(t, js, tile)
		for _, ni := range oddBatches {
			got := make([]Partial, ni)
			ch.ForceBatchInto(got, 0, is[:ni], eps)
			for q := range got {
				if got[q] != want[q] {
					t.Fatalf("tile %d, batch of %d: partial %d differs from single-tile reference", tile, ni, q)
				}
			}
		}
	}
}

// TestForceRandomPartitionInvariance streams the j-range as a random
// partition of stripes through ForceBatchRangeInto and merges the
// per-stripe partials: the merged result must match the whole-memory pass
// bit for bit, whatever the cut points — the property that makes both
// j-striping across cores and cache tiling numerically free.
func TestForceRandomPartitionInvariance(t *testing.T) {
	const n, maxNI = 512, 49
	js, is := benchParticles(t, n, maxNI)
	eps := 1.0 / 64
	ch := tiledChip(t, js, 0) // default tile

	want := make([]Partial, maxNI)
	ch.ForceBatchInto(want, 0, is, eps)

	rng := xrand.New(4242)
	for _, ni := range oddBatches {
		stripe := make([]Partial, ni)
		for trial := 0; trial < 16; trial++ {
			got := make([]Partial, ni)
			for q := range got {
				got[q].Init(ch.Config().Format, is[q].ExpAcc, is[q].ExpJerk, is[q].ExpPot)
			}
			for lo := 0; lo < n; {
				hi := lo + 1 + int(rng.Uint64()%uint64(n/4))
				if hi > n {
					hi = n
				}
				ch.ForceBatchRangeInto(stripe, 0, is[:ni], eps, lo, hi)
				for q := range got {
					got[q].Merge(&stripe[q])
				}
				lo = hi
			}
			for q := range got {
				if got[q] != want[q] {
					t.Fatalf("batch of %d, trial %d: merged random-partition partial %d differs from whole pass", ni, trial, q)
				}
			}
		}
	}
}

// TestForceBatchRangeIntoReversedRange pins the reversed-bounds contract:
// lo > hi clamps to an empty range — initialised partials, no pairwise
// work, a cycle count for zero j-particles — never a panic or a negative
// loop bound.
func TestForceBatchRangeIntoReversedRange(t *testing.T) {
	js, is := benchParticles(t, 64, 4)
	ch := tiledChip(t, js, 0)
	dst := make([]Partial, len(is))
	// Dirty the slab first so "initialised empty" is observable.
	ch.ForceBatchInto(dst, 0, is, 1.0/64)

	cycles := ch.ForceBatchRangeInto(dst, 0, is, 1.0/64, 50, 10)
	if want := ch.Config().BatchCycles(len(is), 0); cycles != want {
		t.Errorf("reversed range cycles %d, want empty-range %d", cycles, want)
	}
	for q := range dst {
		if dst[q].Acc[0].Sum != 0 || dst[q].Pot.Sum != 0 {
			t.Errorf("partial %d accumulated pairs over a reversed range", q)
		}
		if dst[q].NN != -1 || !math.IsInf(dst[q].NND2, 1) {
			t.Errorf("partial %d: NN state %d/%v, want virgin -1/+Inf", q, dst[q].NN, dst[q].NND2)
		}
	}
}

// BenchmarkForceBatch48x64k is BenchmarkForceBatch48 at full memory depth:
// 48 i-particles against a 65536-deep j-memory, the shape where the j-hot
// set (4 MB) no longer fits in cache and tiling pays.
func BenchmarkForceBatch48x64k(b *testing.B) {
	ch, is := benchChip(b, 65536, 48)
	dst := make([]Partial, len(is))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.ForceBatchInto(dst, 0, is, 1.0/64)
	}
}

// BenchmarkForceTiled sweeps the j-tile length over a full-depth memory:
// 48 (the i-batch), 512, the P4 cache-model derivation (4000), 8192, and
// untiled (65536). Results must be bit-identical across the sweep (see
// TestForceTileInvariance); only the wall time may move.
func BenchmarkForceTiled(b *testing.B) {
	js, is := benchParticles(b, 65536, 48)
	for _, tile := range []int{48, 512, 4000, 8192, 65536} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			ch := tiledChip(b, js, tile)
			dst := make([]Partial, len(is))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.ForceBatchInto(dst, 0, is, 1.0/64)
			}
		})
	}
}
