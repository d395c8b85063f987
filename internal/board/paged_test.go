package board

import (
	"testing"

	"grape6/internal/chip"
)

// pagedConfig is smallConfig squeezed to a tiny per-chip memory so the
// golden workloads overflow the fleet and stream as multi-page sets.
func pagedConfig(memCapacity int) Config {
	c := smallConfig()
	c.Chip.MemCapacity = memCapacity
	return c
}

func TestGoldenBitIdentityPaged(t *testing.T) {
	// 512 particles on 8 chips of 16 slots: 128 chip slots, so the golden
	// workload is a multi-page set of 4 pages — and must still reproduce
	// the seed kernel hash bit for bit (§3.4 partition invariance, now
	// applied across pages in time rather than chips in space).
	got := goldenWorkloadHash(t, pagedConfig(16), func(a *Array, is []chip.IParticle) []*chip.Partial {
		if got := a.pages(); got != 4 {
			t.Fatalf("workload streams in %d pages, want 4", got)
		}
		out, _ := forces(a, 0.015625, is, 1.0/64)
		return out
	})
	if got != seedKernelHash {
		t.Errorf("multi-page hash %#016x differs from seed kernel %#016x", got, seedKernelHash)
	}
}

func TestGoldenBitIdentityPagedPool(t *testing.T) {
	forceParallel(t)
	got := goldenWorkloadHash(t, pagedConfig(16), func(a *Array, is []chip.IParticle) []*chip.Partial {
		out, _ := forces(a, 0.015625, is, 1.0/64)
		return out
	})
	if got != seedKernelHash {
		t.Errorf("multi-page pool hash %#016x differs from seed kernel %#016x", got, seedKernelHash)
	}
}

func TestGoldenMultiStepPaged(t *testing.T) {
	// The 24-block UpdateJ workload on a multi-page set: corrector writes
	// land in the host copy and stream out with the next page pass.
	a := New(pagedConfig(64)) // 512 chip slots for 2048 particles: 4 pages
	defer a.Close()
	if got := multiStepWorkloadHash(t, a); got != multiStepHash {
		t.Errorf("multi-page multi-step hash %#016x, want %#016x", got, multiStepHash)
	}
}

func TestPagedMatchesResidentAcrossCapacities(t *testing.T) {
	// Any per-chip memory capacity must yield the same bits as the
	// one-page evaluation, including capacities that leave ragged final
	// pages.
	onePage := New(smallConfig())
	defer onePage.Close()
	_, is := loadPlummer(t, onePage, 300, 9)
	want, _ := forces(onePage, 0.03125, is[:17], 1.0/64)

	for _, capacity := range []int{5, 16, 37} {
		a := New(pagedConfig(capacity))
		defer a.Close()
		js, _ := loadPlummer(t, a, 300, 9)
		if a.pages() == 1 {
			t.Fatalf("capacity %d: 300 particles should be a multi-page set", capacity)
		}
		got, _ := forces(a, 0.03125, is[:17], 1.0/64)
		for i := range want {
			if *got[i] != *want[i] {
				t.Fatalf("capacity %d: partial %d differs from the one-page evaluation", capacity, i)
			}
		}
		// An update to a multi-page set must be visible in the next
		// evaluation exactly like one to a one-page set.
		j := js[123]
		j.A[0] = a.Config().Chip.Format.Round(j.A[0] + 0.001953125)
		if err := a.UpdateJ(j); err != nil {
			t.Fatal(err)
		}
		if err := onePage.UpdateJ(j); err != nil {
			t.Fatal(err)
		}
		want2, _ := forces(onePage, 0.03125, is[:5], 1.0/64)
		got2, _ := forces(a, 0.03125, is[:5], 1.0/64)
		for i := range want2 {
			if *got2[i] != *want2[i] {
				t.Fatalf("capacity %d: post-update partial %d differs", capacity, i)
			}
		}
		// Restore for the next capacity round.
		if err := onePage.UpdateJ(js[123]); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}
}

func TestPagedRejectsUnknownUpdate(t *testing.T) {
	a := New(pagedConfig(8))
	defer a.Close()
	loadPlummer(t, a, 200, 3)
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
	a := New(pagedConfig(16))
	defer a.Close()
	_, is := loadPlummer(t, a, 512, 42)
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
	a := New(pagedConfig(16))
	defer a.Close()
	loadPlummer(t, a, 128, 6)
	if got := a.pages(); got != 1 {
		t.Fatalf("128 particles in 8×16 slots take %d pages, want 1", got)
	}
	for _, ch := range a.chips {
		if ch.NJ() != 16 {
			t.Fatalf("chip holds %d, want 16", ch.NJ())
		}
	}
}
