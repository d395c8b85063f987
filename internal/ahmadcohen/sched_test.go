package ahmadcohen

import (
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

// TestLazyPredictionMatchesEager: the lazy prediction staging (block +
// neighbour lists only on pure-irregular blocks) must be bit-identical
// to the retired predict-everything-per-block behaviour — it predicts
// the same particles from the same states with the same polynomial, so
// every float must agree to the last bit.
func TestLazyPredictionMatchesEager(t *testing.T) {
	run := func(eager bool) *Integrator {
		sys := model.Plummer(192, xrand.New(31))
		it, err := New(sys, hermite.DefaultParams(1.0/32))
		if err != nil {
			t.Fatal(err)
		}
		it.eagerPredict = eager
		for b := 0; b < 300; b++ {
			it.Step()
		}
		return it
	}
	lazy := run(false)
	eager := run(true)

	if lazy.T != eager.T || lazy.Blocks != eager.Blocks {
		t.Fatalf("block sequence diverged: T=%v/%v blocks=%d/%d",
			lazy.T, eager.T, lazy.Blocks, eager.Blocks)
	}
	if lazy.IrrSteps != eager.IrrSteps || lazy.RegSteps != eager.RegSteps || lazy.PairOps != eager.PairOps {
		t.Fatalf("work counters diverged: irr=%d/%d reg=%d/%d pairs=%d/%d",
			lazy.IrrSteps, eager.IrrSteps, lazy.RegSteps, eager.RegSteps,
			lazy.PairOps, eager.PairOps)
	}
	ls, es := lazy.Sys, eager.Sys
	for i := 0; i < ls.N; i++ {
		if ls.Pos[i] != es.Pos[i] || ls.Vel[i] != es.Vel[i] ||
			ls.Acc[i] != es.Acc[i] || ls.Jerk[i] != es.Jerk[i] ||
			ls.Time[i] != es.Time[i] || ls.Step[i] != es.Step[i] {
			t.Fatalf("particle %d state differs between lazy and eager prediction", i)
		}
	}
	for i := range lazy.ps {
		if len(lazy.ps[i].nb) != len(eager.ps[i].nb) || lazy.ps[i].rnb2 != eager.ps[i].rnb2 {
			t.Fatalf("particle %d neighbour state differs between lazy and eager", i)
		}
	}
}

// TestSchedulerMatchesScanAC checks the bucketed scheduler against the
// retired O(N) scan on the Ahmad-Cohen block sequence.
func TestSchedulerMatchesScanAC(t *testing.T) {
	sys := model.Plummer(128, xrand.New(37))
	it, err := New(sys, hermite.DefaultParams(1.0/32))
	if err != nil {
		t.Fatal(err)
	}
	var wantBlock []int
	for b := 0; b < 300; b++ {
		wantT := sys.MinTime()
		wantBlock = wantBlock[:0]
		for i := 0; i < sys.N; i++ {
			if sys.Time[i]+sys.Step[i] == wantT {
				wantBlock = append(wantBlock, i)
			}
		}
		if got := it.NextBlockTime(); got != wantT {
			t.Fatalf("block %d: NextBlockTime = %v, want %v", b, got, wantT)
		}
		stat := it.Step()
		if stat.Time != wantT || stat.Size != len(wantBlock) {
			t.Fatalf("block %d: got (t=%v, n=%d), want (t=%v, n=%d)",
				b, stat.Time, stat.Size, wantT, len(wantBlock))
		}
		for k := range wantBlock {
			if it.block[k] != wantBlock[k] {
				t.Fatalf("block %d: member[%d] = %d, want %d", b, k, it.block[k], wantBlock[k])
			}
		}
		if stat.Bins < 1 {
			t.Fatalf("block %d: Bins = %d, want >= 1", b, stat.Bins)
		}
	}
}

// TestStepSteadyStateAllocs: once neighbour lists, the block scratch and
// the scheduler bins have reached their working sizes, irregular block
// steps must not allocate (the neighboursWithin scratch reuse this PR's
// satellite task pins down).
func TestStepSteadyStateAllocs(t *testing.T) {
	sys := model.Plummer(256, xrand.New(5))
	it, err := New(sys, hermite.DefaultParams(1.0/32))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 400; b++ {
		it.Step()
	}
	allocs := testing.AllocsPerRun(100, func() { it.Step() })
	if allocs > 0.05 {
		t.Fatalf("steady-state AC block step allocates %.2f times/op, want 0", allocs)
	}
}
