package board

import (
	"runtime"
	"testing"

	"grape6/internal/chip"
)

// TestBatchCyclesForMatchesForcesInto keeps the name of the test that
// compared the deleted analytic mirror with ForcesInto (the pipeline's test
// floor holds it). What it pins now is what made the mirror redundant: the
// cycle count ForcesInto returns depends on the i-count and the loaded
// j-set alone — a pool of one worker and a pool of four report the same
// number for one-page and multi-page sets, and the number is the cycle
// model's lockstep maximum of every page plus the reduction latency — so
// the grape6d scheduler can charge a session the array's own return value.
func TestBatchCyclesForMatchesForcesInto(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	multi := smallConfig()
	multi.Chip.MemCapacity = 24 // a 512-particle set streams in pages
	for _, tc := range []struct {
		name  string
		cfg   Config
		n     int
		pages int
	}{
		{"one page", smallConfig(), 2048, 1},
		{"multi-page", multi, 512, 3},
	} {
		a := New(tc.cfg)
		defer a.Close()
		_, is := loadPlummer(t, a, tc.n, 42)
		if got := a.pages(); got != tc.pages {
			t.Fatalf("%s: %d pages, want %d", tc.name, got, tc.pages)
		}
		dst := make([]chip.Partial, len(is))
		for _, n := range []int{1, 8, 48, 96, 200} {
			// The pool is sized when it spawns: Close between the two
			// widths so each evaluation runs on the width it names.
			runtime.GOMAXPROCS(1)
			one := a.ForcesInto(dst[:n], 0.015625, is[:n], 1.0/64)
			a.Close()
			runtime.GOMAXPROCS(4)
			pooled := a.ForcesInto(dst[:n], 0.015625, is[:n], 1.0/64)
			a.Close()
			if one != pooled {
				t.Errorf("%s: %d i-particles cost %d cycles on one worker, %d on four", tc.name, n, one, pooled)
			}
			// Page p's busiest chip holds ⌈m/nc⌉ of its m particles.
			want := a.reductionCycles()
			nc := len(a.chips)
			for p := 0; p < tc.pages; p++ {
				m := (p+1)*tc.n/tc.pages - p*tc.n/tc.pages
				want += tc.cfg.Chip.BatchCycles(n, (m+nc-1)/nc)
			}
			if one != want {
				t.Errorf("%s: %d i-particles cost %d cycles, the cycle model says %d", tc.name, n, one, want)
			}
		}
	}
}

// TestLoadJSwapSteadyStateAllocs pins the j-swap path the multi-tenant
// scheduler drives on every tenant switch: reloading j-sets of the same
// footprint must allocate nothing once the staging has grown.
func TestLoadJSwapSteadyStateAllocs(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	jsA, _ := loadPlummer(t, a, 300, 1)
	jsB := make([]chip.JParticle, 300)
	copy(jsB, jsA)
	for i := range jsB {
		jsB[i].ID = i // same footprint, different image
	}
	// Warm both directions so slabs and index tables reach steady state.
	for i := 0; i < 3; i++ {
		if err := a.LoadJ(jsB); err != nil {
			t.Fatal(err)
		}
		if err := a.LoadJ(jsA); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.LoadJ(jsB); err != nil {
			t.Fatal(err)
		}
		if err := a.LoadJ(jsA); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state j-swap allocates %.1f objects per swap pair, want 0", allocs)
	}
}
