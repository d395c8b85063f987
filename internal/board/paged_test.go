package board_test

import (
	"testing"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/forcecheck"
)

// pagedArray is an 8-chip array of memCapacity slots per chip, closed
// when the test ends.
func pagedArray(t testing.TB, memCapacity int) *board.Array {
	cfg := forcecheck.SmallHW()
	cfg.Chip.MemCapacity = memCapacity
	a := board.New(cfg)
	t.Cleanup(a.Close)
	return a
}

func TestPagedRejectsUnknownUpdate(t *testing.T) {
	a := pagedArray(t, 8)
	forcecheck.LoadPlummer(t, a, 200, 3)
	var p chip.JParticle
	p.ID = 4096
	if err := a.UpdateJ(p); err == nil {
		t.Fatal("expected error updating a particle that was never loaded")
	}
}

func TestPagedSteadyStateAllocs(t *testing.T) {
	// After one warm evaluation has sized the page scratch and the chip
	// planes, multi-page force passes must allocate nothing: the balanced
	// page lengths keep every chip's chunk within one particle across
	// pages, below the plane shrink hysteresis.
	a := pagedArray(t, 16)
	_, is := forcecheck.LoadPlummer(t, a, 512, 42)
	dst := make([]chip.Partial, 24)
	a.ForcesInto(dst, 0.015625, is[:24], 1.0/64)
	allocs := testing.AllocsPerRun(10, func() {
		a.ForcesInto(dst, 0.015625, is[:24], 1.0/64)
	})
	if allocs != 0 {
		t.Fatalf("multi-page ForcesInto allocates %.1f times/op in steady state, want 0", allocs)
	}
}

func TestResidentExactCapacityStaysResident(t *testing.T) {
	// len(ps) == fleet capacity is the boundary: still one page.
	a := pagedArray(t, 16)
	forcecheck.LoadPlummer(t, a, 128, 6)
	if got := board.Pages(a); got != 1 {
		t.Fatalf("128 particles in 8×16 slots take %d pages, want 1", got)
	}
	for _, ch := range board.Chips(a) {
		if ch.NJ() != 16 {
			t.Fatalf("chip holds %d, want 16", ch.NJ())
		}
	}
}
