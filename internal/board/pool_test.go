package board_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/forcecheck"
)

// forceParallel raises GOMAXPROCS so the worker pool is several workers
// wide even on single-CPU hosts.
func forceParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestWorkerPoolPersistsAcrossCalls(t *testing.T) {
	forceParallel(t)
	a := small(t)
	js, is := forcecheck.LoadPlummer(t, a, 512, 7)
	eval := func(n int) []chip.Partial {
		dst := make([]chip.Partial, n)
		a.ForcesInto(dst, 0, is[:n], 1.0/64)
		return dst
	}

	// The first call spawns the pool.
	r1 := eval(64)
	workers := board.Workers(a)
	if len(workers) == 0 {
		t.Fatal("no worker pool after a Forces call")
	}

	// Further calls — larger, smaller, and tiny — reuse it. The tiny one
	// (7 × 512 pairs at the same t, on a current cache) must agree with
	// one chip holding the whole j-set.
	eval(128)
	eval(16)
	tiny := eval(7)
	r2 := eval(64)
	now := board.Workers(a)
	if len(now) != len(workers) {
		t.Errorf("pool respawned: %d workers, then %d", len(workers), len(now))
	}
	for w := range workers {
		if now[w] != workers[w] {
			t.Errorf("worker %d replaced between calls", w)
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("i=%d: repeated evaluation changed bits", i)
		}
	}
	ref := forcecheck.NewReference(a.Config())
	if err := ref.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	want := make([]chip.Partial, 7)
	ref.ForcesInto(want, 0, is[:7], 1.0/64)
	for i := range tiny {
		if tiny[i] != want[i] {
			t.Errorf("i=%d: pool differs from the single-chip reference", i)
		}
	}
}

func TestCloseIsIdempotentAndRespawns(t *testing.T) {
	forceParallel(t)
	a := board.New(forcecheck.SmallHW())
	_, is := forcecheck.LoadPlummer(t, a, 512, 9)

	before := make([]chip.Partial, 64)
	a.ForcesInto(before, 0, is[:64], 1.0/64)
	a.Close()
	a.Close() // double close must not panic
	if board.Workers(a) != nil {
		t.Fatal("workers not cleared by Close")
	}

	// A closed Array keeps working: the pool respawns lazily.
	after := make([]chip.Partial, 64)
	a.ForcesInto(after, 0, is[:64], 1.0/64)
	for i := range before {
		if before[i].Acc[0].Sum != after[i].Acc[0].Sum {
			t.Fatalf("i=%d: results differ after Close/respawn", i)
		}
	}
	a.Close()

	// Close on an Array whose pool never started is a no-op.
	board.New(forcecheck.SmallHW()).Close()
}

// poolGoroutines returns the ids of the goroutines in a pool worker's
// loop, read from a dump of every goroutine's stack.
func poolGoroutines() map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "board.(*forceWorker).run(") {
			ids[strings.Fields(g)[1]] = true // "goroutine <id> [state]:"
		}
	}
	return ids
}

// TestCloseStopsWorkers checks that Close ends the pool's goroutines,
// those of a respawned pool too: a worker left parked on its jobs channel
// would outlive the Array. Goroutines of other tests' pools are told
// apart by id.
func TestCloseStopsWorkers(t *testing.T) {
	forceParallel(t)
	a := board.New(forcecheck.SmallHW())
	_, is := forcecheck.LoadPlummer(t, a, 512, 12)
	dst := make([]chip.Partial, 64)
	for round := 1; round <= 2; round++ {
		before := poolGoroutines()
		a.ForcesInto(dst, 0, is[:64], 1.0/64)
		var ours []string
		for id := range poolGoroutines() {
			if !before[id] {
				ours = append(ours, id)
			}
		}
		if len(ours) != 4 {
			t.Fatalf("round %d: %d new workers after a force pass, want 4", round, len(ours))
		}
		a.Close()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			now, left := poolGoroutines(), 0
			for _, id := range ours {
				if now[id] {
					left++
				}
			}
			if left == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of 4 workers still running 2 s after Close", round, left)
			}
		}
	}
}

func TestForcesIntoShortSlabPanics(t *testing.T) {
	a := small(t)
	_, is := forcecheck.LoadPlummer(t, a, 16, 10)
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
	a := small(b)
	_, is := forcecheck.LoadPlummer(b, a, 1024, 1)
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
	a := small(b)
	_, is := forcecheck.LoadPlummer(b, a, 2048, 1)
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
	a := small(b)
	_, is := forcecheck.LoadPlummer(b, a, 65536, 1)
	dst := make([]chip.Partial, 48)
	a.ForcesInto(dst, 0, is[:48], 1.0/64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ForcesInto(dst, 0, is[:48], 1.0/64)
	}
}
