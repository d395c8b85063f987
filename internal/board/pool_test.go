package board

import (
	"runtime"
	"testing"

	"grape6/internal/chip"
)

// forceParallel raises GOMAXPROCS so the worker pool is several workers
// wide even on single-CPU hosts.
func forceParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestWorkerPoolPersistsAcrossCalls(t *testing.T) {
	forceParallel(t)
	a := New(smallConfig())
	defer a.Close()
	js, is := loadPlummer(t, a, 512, 7)

	// The first call spawns the pool.
	r1, _ := forces(a, 0, is[:64], 1.0/64)
	wp := a.workers.Load()
	if wp == nil || len(*wp) == 0 {
		t.Fatal("no worker pool after a Forces call")
	}
	workers := *wp

	// Further calls — larger, smaller, and tiny — reuse it. The tiny one
	// (7 × 512 pairs at the same t, on a current cache) must agree with
	// one chip holding the whole j-set.
	forces(a, 0, is[:128], 1.0/64)
	forces(a, 0, is[:16], 1.0/64)
	tiny, _ := forces(a, 0, is[:7], 1.0/64)
	r2, _ := forces(a, 0, is[:64], 1.0/64)
	now := *a.workers.Load()
	if len(now) != len(workers) {
		t.Errorf("pool respawned: %d workers, then %d", len(workers), len(now))
	}
	for w := range workers {
		if now[w] != workers[w] {
			t.Errorf("worker %d replaced between calls", w)
		}
	}
	for i := range r1 {
		if r1[i].Acc[0].Sum != r2[i].Acc[0].Sum || r1[i].Pot.Sum != r2[i].Pot.Sum {
			t.Fatalf("i=%d: repeated evaluation changed bits", i)
		}
	}
	want := singleChipPartials(t, a.Config().Chip, js, 0, is[:7], 1.0/64)
	for i := range tiny {
		if *tiny[i] != want[i] {
			t.Errorf("i=%d: pool differs from the single-chip reference", i)
		}
	}
}

func TestCloseIsIdempotentAndRespawns(t *testing.T) {
	forceParallel(t)
	a := New(smallConfig())
	_, is := loadPlummer(t, a, 512, 9)

	before, _ := forces(a, 0, is[:64], 1.0/64)
	a.Close()
	a.Close() // double close must not panic
	if a.workers.Load() != nil {
		t.Fatal("workers not cleared by Close")
	}

	// A closed Array keeps working: the pool respawns lazily.
	after, _ := forces(a, 0, is[:64], 1.0/64)
	for i := range before {
		if before[i].Acc[0].Sum != after[i].Acc[0].Sum {
			t.Fatalf("i=%d: results differ after Close/respawn", i)
		}
	}
	a.Close()

	// Close on an Array whose pool never started is a no-op.
	New(smallConfig()).Close()
}

func TestForcesIntoShortSlabPanics(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	_, is := loadPlummer(t, a, 16, 10)
	defer func() {
		if recover() == nil {
			t.Error("ForcesInto accepted a too-short slab")
		}
	}()
	a.ForcesInto(make([]chip.Partial, 1), 0, is[:2], 0.1)
}

// BenchmarkArrayForces measures a 48-particle evaluation on an 8-chip
// attachment through the persistent pool and reusable slab. Steady state
// must be allocation-free.
func BenchmarkArrayForces(b *testing.B) {
	a := New(smallConfig())
	defer a.Close()
	_, is := loadPlummer(b, a, 1024, 1)
	dst := make([]chip.Partial, 48)
	a.ForcesInto(dst, 0, is[:48], 1.0/64) // warm up pool and worker slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ForcesInto(dst, 0, is[:48], 1.0/64)
	}
}

// BenchmarkArrayDispatch isolates the pool's per-evaluation
// synchronization cost: a small i-batch against a modest j-set, with the
// evaluation time advancing every iteration so every span predicts its
// slots before forcing them — the per-block-step pattern of the
// integrator. The work per span is tiny, so the ns/op is dominated by the
// dispatch machinery this benchmark tracks: one fused stage per
// evaluation, one channel handoff per worker plus one WaitGroup join.
// Steady state must stay allocation-free.
func BenchmarkArrayDispatch(b *testing.B) {
	old := runtime.GOMAXPROCS(4) // a pool of four even on small hosts
	defer runtime.GOMAXPROCS(old)
	a := New(smallConfig())
	defer a.Close()
	_, is := loadPlummer(b, a, 2048, 1)
	dst := make([]chip.Partial, 4)
	a.ForcesInto(dst, 0, is[:4], 1.0/64) // warm up pool and worker slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i+1) * 0x1p-20
		a.ForcesInto(dst, t, is[:4], 1.0/64)
	}
}

// BenchmarkArrayForces64k is the array path at full memory pressure: 65536
// j-particles striped over the 8 emulated chips (8192 per chip), where the
// per-worker j-hot set exceeds the host cache.
func BenchmarkArrayForces64k(b *testing.B) {
	a := New(smallConfig())
	defer a.Close()
	_, is := loadPlummer(b, a, 65536, 1)
	dst := make([]chip.Partial, 48)
	a.ForcesInto(dst, 0, is[:48], 1.0/64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ForcesInto(dst, 0, is[:48], 1.0/64)
	}
}

// TestForcesIntoFewParticlesAcrossProcs holds the smallest blocks — one
// i-particle (both lanes of the chip kernel, over the halves of each
// span), a pair, a pair and a lone one — to the single-chip reference
// however the evaluation is striped: on a pool of one, of two, and of
// four, which on a two-processor host leaves workers that find no span
// left to claim.
func TestForcesIntoFewParticlesAcrossProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	const nj = 4801 // uneven chip loads, odd spans
	for _, tc := range []struct {
		procs int
		path  string
	}{{1, "one worker"}, {2, "pool"}, {4, "pool with idle workers"}} {
		runtime.GOMAXPROCS(tc.procs)
		a := New(smallConfig())
		js, is := loadPlummer(t, a, nj, 11)
		for ni := 1; ni <= 3; ni++ {
			got, _ := forces(a, 0x1p-6, is[100:100+ni], 1.0/64)
			want := singleChipPartials(t, a.Config().Chip, js, 0x1p-6, is[100:100+ni], 1.0/64)
			for q := range got {
				if *got[q] != want[q] {
					t.Errorf("%s (GOMAXPROCS %d), %d i-particles: partial %d differs from the single-chip reference", tc.path, tc.procs, ni, q)
				}
			}
		}
		a.Close()
	}
}
