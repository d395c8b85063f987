package des

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refEvent / refQueue is the retired container/heap event queue, kept as
// the reference implementation: a pointer-event binary heap ordered by
// (at, seq) exactly as the engine's first version was. The differential
// test below checks that the production queue (4-ary value heap + ready
// ring) pops in exactly the same order over randomized workloads.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// TestDifferentialQueueOrder drives the engine and the container/heap
// reference through identical randomized workloads — bursts of AtHandler
// at mixed offsets (including zero — the ready-ring path) scheduled from
// inside handlers, exactly how the simulation layers use the queue — and
// requires the pop order to match event for event.
func TestDifferentialQueueOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))

		// Pre-generate the workload: each fired event schedules a few
		// follow-ups at deterministic offsets (0 → same-tick ready ring,
		// tiny → heap near the top, large → deep heap).
		type spec struct {
			fanout  int
			offsets [4]float64
		}
		specs := make([]spec, 400)
		for i := range specs {
			s := &specs[i]
			s.fanout = rng.Intn(4)
			for k := 0; k < s.fanout; k++ {
				switch rng.Intn(3) {
				case 0:
					s.offsets[k] = 0
				case 1:
					s.offsets[k] = rng.Float64() * 1e-6
				default:
					s.offsets[k] = rng.Float64()
				}
			}
		}

		// Run the engine: event i records its pop position.
		eng := New()
		var gotOrder []int
		nextID := 0
		var h HandlerID
		h = eng.RegisterHandler(func(arg uint64) {
			id := int(arg)
			gotOrder = append(gotOrder, id)
			if id >= len(specs) {
				return
			}
			sp := specs[id]
			for k := 0; k < sp.fanout; k++ {
				eng.AtHandler(eng.Now()+sp.offsets[k], h, uint64(nextID))
				nextID++
			}
		})
		// Seed events; ids 0..9 are the seeds, children number upward.
		nextID = 10
		for i := 0; i < 10; i++ {
			eng.AtHandler(float64(i%3)*0.25, h, uint64(i))
		}
		eng.RunAll()

		// Replay on the reference queue with the same spec table.
		ref := &refQueue{}
		var wantOrder []int
		var seq uint64
		now := 0.0
		nextID = 10
		push := func(at float64, id int) {
			seq++
			heap.Push(ref, &refEvent{at: at, seq: seq, id: id})
		}
		for i := 0; i < 10; i++ {
			push(float64(i%3)*0.25, i)
		}
		for ref.Len() > 0 {
			ev := heap.Pop(ref).(*refEvent)
			now = ev.at
			wantOrder = append(wantOrder, ev.id)
			if ev.id >= len(specs) {
				continue
			}
			sp := specs[ev.id]
			for k := 0; k < sp.fanout; k++ {
				push(now+sp.offsets[k], nextID)
				nextID++
			}
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: pop %d: engine fired event %d, reference %d", trial, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

// Non-finite times used to pass the `< 0` / `< now` guards silently and
// corrupt heap ordering. They must panic with a clear message now.
func TestNonFiniteTimesPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on non-finite time", name)
			}
		}()
		fn()
	}
	nan := math.NaN()
	inf := math.Inf(1)

	eng := New()
	h := eng.RegisterHandler(func(uint64) {})
	mustPanic("AtHandler(NaN)", func() { eng.AtHandler(nan, h, 0) })
	mustPanic("AtHandler(+Inf)", func() { eng.AtHandler(inf, h, 0) })
	mustPanic("AtHandler(-Inf)", func() { eng.AtHandler(math.Inf(-1), h, 0) })

	eng2 := New()
	var w *Waiter
	wake := eng2.RegisterHandler(func(uint64) { mustPanic("Wake(NaN)", func() { w.Wake(nan) }); w.Wake(1) })
	eng2.Spawn("p", func(p *Proc) {
		mustPanic("Sleep(NaN)", func() { p.Sleep(nan) })
		mustPanic("Sleep(+Inf)", func() { p.Sleep(inf) })
		w = p.NewWaiter()
		eng2.AtHandler(p.Now()+0.5, wake, 0)
		w.Park()
	})
	eng2.RunAll()
	if eng2.Live() != 0 {
		t.Fatal("process deadlocked")
	}
}

// Re-entrant Run/RunAll — from a process or from a handler — used
// to deadlock on the scheduler handoff. It must panic descriptively.
func TestReentrantRunPanics(t *testing.T) {
	check := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on re-entrant run", name)
			}
		}()
		fn()
	}

	eng := New()
	eng.Spawn("p", func(p *Proc) {
		check("RunAll from process", func() { eng.RunAll() })
		check("Run from process", func() { eng.Run(1) })
	})
	eng.RunAll()

	eng2 := New()
	h := eng2.RegisterHandler(func(uint64) {
		check("RunAll from handler", func() { eng2.RunAll() })
	})
	eng2.AtHandler(0, h, 0)
	eng2.RunAll()
}

// RegisterHandler/AtHandler is the hot-path scheduling API used by
// simnet: events carry (handler id, arg) instead of a closure.
func TestHandlerEvents(t *testing.T) {
	eng := New()
	var got []uint64
	h := eng.RegisterHandler(func(arg uint64) { got = append(got, arg) })
	eng.AtHandler(2.0, h, 2)
	eng.AtHandler(1.0, h, 1)
	eng.AtHandler(1.0, h, 11) // same tick: creation order
	end := eng.RunAll()
	if end != 2.0 {
		t.Fatalf("end %g, want 2", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 11 || got[2] != 2 {
		t.Fatalf("handler args %v, want [1 11 2]", got)
	}
}

// BenchmarkEngineEventsPerSec measures raw queue throughput on the
// handler path: a self-sustaining population of 256 in-flight events,
// each firing rescheduling the next. After warmup (which grows the queue
// slabs) the steady-state loop performs zero allocations — the property
// the CI allocs/op guard pins.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	eng := New()
	const inflight = 256
	fired, target := 0, 0
	rng := uint64(1)
	var h HandlerID
	h = eng.RegisterHandler(func(arg uint64) {
		fired++
		if fired < target {
			rng = rng*6364136223846793005 + 1442695040888963407
			eng.AtHandler(eng.Now()+1e-9+float64(rng>>40)*1e-15, h, arg)
		}
	})
	seed := func() {
		for i := 0; i < inflight; i++ {
			eng.AtHandler(eng.Now()+float64(i+1)*1e-9, h, uint64(i))
		}
	}
	// Warmup: grow heap/ready slabs so the timed section is steady-state.
	target = 4 * inflight
	fired = 0
	seed()
	eng.RunAll()

	b.ReportAllocs()
	b.ResetTimer()
	target = b.N
	fired = 0
	seed()
	eng.RunAll()
	b.StopTimer()
	if fired < b.N {
		// target smaller than the seeded population: everything fired.
		fired = b.N
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSleepProcCycle measures the full process path: Sleep → value
// event → coroutine switch to the scheduler and back. The switch is a call
// through a func value the linter cannot follow, so the 0 allocs/op the CI
// gate reads here is what holds the noalloc contract of handoff and yield.
func BenchmarkSleepProcCycle(b *testing.B) {
	eng := New()
	n := b.N
	eng.Spawn("worker", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1e-9)
		}
	})
	// Let the process start first so the timed loop is pure cycles.
	eng.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunAll()
	b.StopTimer()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}
