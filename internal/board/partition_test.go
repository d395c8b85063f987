package board_test

import (
	"testing"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/forcecheck"
)

// The partition invariance of Section 3.4 — "exactly the same results on
// machines with different sizes" — as fixed forcecheck cases: each runs
// through the board, a grape6d lease and both gbackend paths, and holds
// every partial, force and cycle count to the one-chip reference. The
// drawn cases are forcecheck's own tests.

// plummer is a case of the n-particle Plummer set of seed on the 8-chip
// array at ε = 1/64.
func plummer(n int, seed uint64, steps ...forcecheck.Step) forcecheck.Case {
	return forcecheck.Case{N: n, Seed: seed, Eps: 1.0 / 64, HW: forcecheck.SmallHW(), Steps: steps}
}

// paged is c with MemCapacity slots per chip.
func paged(c forcecheck.Case, memCapacity int) forcecheck.Case {
	c.HW.Chip.MemCapacity = memCapacity
	return c
}

// golden is the seed-kernel workload of TestGoldenBitIdentityVsSeedKernel.
func golden() forcecheck.Case {
	return plummer(512, 42, forcecheck.Step{T: 0.015625, Block: 96})
}

// multiStep is the individual-timestep workload of
// TestGoldenMultiStepSerial, with Hermite corrections.
func multiStep() forcecheck.Case {
	return plummer(2048, 77, forcecheck.BlockSteps(24, 4)...)
}

func TestArrayMatchesSingleChip(t *testing.T) {
	forcecheck.Run(t, plummer(96, 2, forcecheck.Step{Block: 8}))
}

func TestDifferentBoardCountsBitIdentical(t *testing.T) {
	c := plummer(64, 3, forcecheck.Step{Block: 4})
	c.HW.Boards = 4
	forcecheck.Run(t, c)
}

// TestUpdateJChangesForce: a correction of particle 3 between two
// evaluations of particle 0 reaches the board's chips.
func TestUpdateJChangesForce(t *testing.T) {
	forcecheck.Run(t, plummer(16, 5, forcecheck.Step{T: 0x1p-9, Block: 1},
		forcecheck.Step{T: 0x1p-9, Lo: 3, Block: 1, Patch: 1}, forcecheck.Step{T: 0x1p-9, Block: 1}))
}

func TestForcesParallelPathMatchesSerial(t *testing.T) {
	forcecheck.Run(t, plummer(512, 7, forcecheck.Step{Block: 1}, forcecheck.Step{Block: 64}))
}

func TestGoldenBitIdentityWorkerPool(t *testing.T) {
	c := golden()
	c.Procs = 4
	forcecheck.Run(t, c)
}

// TestGoldenBitIdentityTileSweep: 1–3 i-particles right after a load, on
// a one-page and a four-page set, at every pool width of the ladder.
func TestGoldenBitIdentityTileSweep(t *testing.T) {
	steps := []forcecheck.Step{{T: 0x1p-6, Block: 1, Reload: true}, {T: 0x1p-6, Block: 2, Reload: true}, {T: 0x1p-6, Block: 3}}
	for _, procs := range []int{1, 2, 3, 8} {
		for _, c := range []forcecheck.Case{plummer(512, 5, steps...), paged(plummer(2048, 5, steps...), 64)} {
			c.Procs = procs
			forcecheck.Run(t, c)
		}
	}
	// A stale pass leaves every chip's cache at t, on the last page too.
	a := pagedArray(t, 64)
	_, is := forcecheck.LoadPlummer(t, a, 2048, 5)
	a.ForcesInto(make([]chip.Partial, 1), 0x1p-6, is[:1], 1.0/64)
	for c, ch := range board.Chips(a) {
		if !ch.PredictedAt(0x1p-6) {
			t.Errorf("chip %d not predicted at t after a pass", c)
		}
	}
}

func TestGoldenMultiStepParallel(t *testing.T) {
	c := multiStep()
	c.Procs = 4
	forcecheck.Run(t, c)
}

func TestGoldenMultiStepTiled(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		c := multiStep()
		c.Procs = procs
		forcecheck.Run(t, c)
	}
}

// TestGoldenBitIdentityForcesInto: the second evaluation lands on the
// slab the first one wrote.
func TestGoldenBitIdentityForcesInto(t *testing.T) {
	forcecheck.Run(t, plummer(512, 42, forcecheck.Step{T: 0.25, Block: 96}, forcecheck.Step{T: 0.015625, Block: 96}))
}

func TestGoldenBitIdentityPaged(t *testing.T) {
	forcecheck.Run(t, paged(golden(), 16)) // 4 pages of 128
}

func TestGoldenBitIdentityPagedPool(t *testing.T) {
	c := paged(golden(), 16)
	c.Procs = 4
	forcecheck.Run(t, c)
}

func TestGoldenMultiStepPaged(t *testing.T) {
	forcecheck.Run(t, paged(multiStep(), 64)) // 4 pages of 512
}

// TestPagedMatchesResidentAcrossCapacities: capacities that leave ragged
// pages, and an update between two evaluations.
func TestPagedMatchesResidentAcrossCapacities(t *testing.T) {
	for _, capacity := range []int{5, 16, 37} {
		forcecheck.Run(t, paged(plummer(300, 9,
			forcecheck.Step{T: 0.03125, Block: 17},
			forcecheck.Step{T: 0.03125, Lo: 123, Block: 1, Patch: 1},
			forcecheck.Step{T: 0.03125, Block: 5}), capacity))
	}
}

// TestUpdateJWriteThrough rewrites every particle of the set through
// UpdateJ, then evaluates. The sizes cover fewer particles than chips, one
// and one more than a particle per chip, a ragged split, the fullest
// one-page set and the smallest multi-page set.
func TestUpdateJWriteThrough(t *testing.T) {
	for _, n := range []int{1, 3, 8, 9, 100, 8 * 16, 8*16 + 1} {
		forcecheck.Run(t, paged(plummer(n, 11,
			forcecheck.Step{T: 0x1p-10, Block: n, Patch: n},
			forcecheck.Step{T: 0x1p-7, Block: min(n, 24)}), 16))
	}
}

// TestForcesIntoFewParticlesAcrossProcs: the smallest blocks on uneven
// chip loads and odd spans, on a pool of one, of two, and of four, which
// on a two-processor host leaves workers that find no span to claim.
func TestForcesIntoFewParticlesAcrossProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		c := plummer(4801, 11, forcecheck.Step{T: 0x1p-6, Lo: 100, Block: 1},
			forcecheck.Step{T: 0x1p-6, Lo: 100, Block: 2}, forcecheck.Step{T: 0x1p-6, Lo: 100, Block: 3})
		c.Procs = procs
		forcecheck.Run(t, c)
	}
}
