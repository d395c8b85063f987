package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []uint64
	h := e.RegisterHandler(func(arg uint64) { order = append(order, arg) })
	e.AtHandler(2.0, h, 2)
	e.AtHandler(1.0, h, 1)
	e.AtHandler(3.0, h, 3)
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3.0 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestTieBreakByCreation(t *testing.T) {
	e := New()
	var order []uint64
	h := e.RegisterHandler(func(arg uint64) { order = append(order, arg) })
	for i := 0; i < 10; i++ {
		e.AtHandler(1.0, h, uint64(i))
	}
	e.RunAll()
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("same-time events out of creation order: %v", order)
		}
	}
}

func TestAfterFromCallback(t *testing.T) {
	e := New()
	var times []float64
	var h HandlerID
	h = e.RegisterHandler(func(arg uint64) {
		if arg == 0 {
			e.AtHandler(e.Now()+0.5, h, 1)
			return
		}
		times = append(times, e.Now())
	})
	e.AtHandler(1.0, h, 0)
	e.RunAll()
	if len(times) != 1 || times[0] != 1.5 {
		t.Errorf("times = %v", times)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	var at float64 = -1
	var h HandlerID
	h = e.RegisterHandler(func(arg uint64) {
		if arg == 0 {
			e.AtHandler(1.0, h, 1) // in the past → clamped to 2.0
			return
		}
		at = e.Now()
	})
	e.AtHandler(2.0, h, 0)
	e.RunAll()
	if at != 2.0 {
		t.Errorf("past event ran at %v", at)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative delay did not panic")
			}
		}()
		p.Sleep(-1)
	})
	e.RunAll()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var ran []uint64
	h := e.RegisterHandler(func(arg uint64) { ran = append(ran, arg) })
	for _, at := range []float64{1, 2, 3, 4} {
		e.AtHandler(at, h, uint64(at))
	}
	e.Run(2.5)
	if len(ran) != 2 {
		t.Errorf("ran %v, want events at 1 and 2 only", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.RunAll()
	if len(ran) != 4 {
		t.Errorf("after RunAll ran %v", ran)
	}
}

func TestProcessSleep(t *testing.T) {
	e := New()
	var trace []float64
	e.Spawn("p", func(p *Proc) {
		trace = append(trace, p.Now())
		p.Sleep(1.5)
		trace = append(trace, p.Now())
		p.Sleep(0.5)
		trace = append(trace, p.Now())
	})
	e.RunAll()
	want := []float64{0, 1.5, 2.0}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
	if e.Live() != 0 {
		t.Errorf("live processes = %d", e.Live())
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(1)
		trace = append(trace, "a1")
		p.Sleep(2) // wakes at 3
		trace = append(trace, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(2)
		trace = append(trace, "b2")
	})
	e.RunAll()
	want := []string{"a0", "b0", "a1", "b2", "a3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace = %v, want %v", trace, want)
			break
		}
	}
}

func TestParkWake(t *testing.T) {
	e := New()
	var got float64 = -1
	var w *Waiter
	e.Spawn("sleeper", func(p *Proc) {
		w = p.NewWaiter()
		w.Park()
		got = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(1)
		w.Wake(2.5)
	})
	e.RunAll()
	if got != 2.5 {
		t.Errorf("woke at %v, want 2.5", got)
	}
	if e.Live() != 0 {
		t.Errorf("live = %d", e.Live())
	}
}

func TestWakeInPastClamps(t *testing.T) {
	e := New()
	var got float64 = -1
	var w *Waiter
	e.Spawn("sleeper", func(p *Proc) {
		w = p.NewWaiter()
		w.Park()
		got = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(3)
		w.Wake(1.0) // in the past
	})
	e.RunAll()
	if got != 3.0 {
		t.Errorf("woke at %v, want 3.0 (clamped)", got)
	}
}

func TestWakeUnparkedIsNoop(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		w := p.NewWaiter()
		w.Wake(5) // not parked: no-op
		p.Sleep(1)
	})
	e.RunAll()
	if e.Now() != 1.0 {
		t.Errorf("final time = %v", e.Now())
	}
}

// A process parked for good is counted, not cleaned up: its coroutine stays
// suspended behind the dropped engine. There is deliberately no stop() for
// it — stopping an iter.Pull makes the pending suspend return, which would
// resume the body as if it had been woken.
func TestDeadlockDetectable(t *testing.T) {
	e := New()
	e.Spawn("stuck", func(p *Proc) {
		w := p.NewWaiter()
		w.Park() // never woken
	})
	e.RunAll()
	if e.Live() != 1 {
		t.Errorf("live = %d, want 1 (deadlocked process)", e.Live())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var trace []float64
		for i := 0; i < 5; i++ {
			e.Spawn("p", func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(0.5)
					trace = append(trace, p.Now())
				}
			})
		}
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different trace lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestManyProcesses(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 500; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(float64(i%7) * 0.1)
			count++
		})
	}
	e.RunAll()
	if count != 500 {
		t.Errorf("count = %d", count)
	}
	if e.Live() != 0 {
		t.Errorf("live = %d", e.Live())
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New()
	var child float64 = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(0.5)
			child = c.Now()
		})
		p.Sleep(5)
	})
	e.RunAll()
	if child != 1.5 {
		t.Errorf("child finished at %v, want 1.5", child)
	}
}

// A process spawned from a handler (scheduler context, mid-run) starts at
// the handler's virtual time, after the events already due then.
func TestSpawnFromCallback(t *testing.T) {
	e := New()
	var trace []string
	h := e.RegisterHandler(func(arg uint64) {
		if arg == 1 {
			trace = append(trace, "sibling@2")
			return
		}
		e.Spawn("late", func(p *Proc) {
			trace = append(trace, fmt.Sprint("start@", p.Now()))
			p.Sleep(1)
			trace = append(trace, fmt.Sprint("end@", p.Now()))
		})
	})
	e.AtHandler(2, h, 0)
	e.AtHandler(2, h, 1)
	e.RunAll()
	if got, want := strings.Join(trace, " "), "sibling@2 start@2 end@3"; got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
	if e.Live() != 0 {
		t.Errorf("live = %d", e.Live())
	}
}

// A panic in a process body reaches the caller of RunAll — it does not die
// on a goroutine nobody can recover from — carrying the process name and
// the virtual time, and leaves the engine consistent: the process is no
// longer live and the engine can run on.
func TestProcessPanicSurfaces(t *testing.T) {
	e := New()
	e.Spawn("bystander", func(p *Proc) { p.Sleep(5) })
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(1.5)
		panic("boom")
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{`"faulty"`, "t=1.5", "boom"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %s", msg, want)
				}
			}
		}()
		e.RunAll()
		t.Error("RunAll returned normally")
	}()
	if e.Live() != 1 {
		t.Errorf("live = %d after the panic, want 1 (the bystander)", e.Live())
	}
	if end := e.RunAll(); end != 5 || e.Live() != 0 {
		t.Errorf("engine did not run on: end %v, live %d", end, e.Live())
	}
}

// The same script — 64 processes sleeping, parking and waking one another —
// fires the same events in the same order whatever GOMAXPROCS is: a process
// switch is a coroutine switch the scheduler makes, not a wake-up the Go
// scheduler orders.
func TestDeterminismAcrossProcs(t *testing.T) {
	type rec struct {
		at   float64
		seq  uint64
		proc int
	}
	script := func() []rec {
		const n = 64
		e := New()
		var trace []rec
		waiters := make([]*Waiter, n)
		wake := e.RegisterHandler(func(arg uint64) { waiters[arg].Wake(0) })
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				mark := func() { trace = append(trace, rec{e.now, e.seq, i}) }
				waiters[i] = p.NewWaiter()
				mark()
				for k := 1; k <= 8; k++ {
					p.Sleep(float64((i*7+k*3)%5) * 0.25) // ties and zero sleeps included
					mark()
					waiters[(i+k)%n].Wake(p.Now() + float64(k%3)*0.125) // no-op unless parked
					if (i+k)%4 == 0 {
						e.AtHandler(e.Now()+0.5, wake, uint64(i))
						waiters[i].Park()
						mark()
					}
				}
			})
		}
		e.RunAll()
		if e.Live() != 0 {
			t.Fatalf("%d processes deadlocked", e.Live())
		}
		return trace
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []rec
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := script()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d trace records, want %d", procs, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("GOMAXPROCS=%d: record %d is %+v, want %+v", procs, k, got[k], want[k])
			}
		}
	}
	if len(want) < 64*9 {
		t.Fatalf("script too short: %d records", len(want))
	}
}

func BenchmarkSleepCycle(b *testing.B) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.RunAll()
}

// Property: for any random schedule of events, execution order is sorted
// by (time, insertion sequence).
func TestPropEventOrder(t *testing.T) {
	f := func(seed uint32) bool {
		x := uint64(seed) | 1
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>40) / float64(1<<24)
		}
		e := New()
		type rec struct {
			at  float64
			seq int
		}
		var fired []rec
		h := e.RegisterHandler(func(arg uint64) { fired = append(fired, rec{e.Now(), int(arg)}) })
		for i := 0; i < 50; i++ {
			e.AtHandler(next(), h, uint64(i))
		}
		e.RunAll()
		for k := 1; k < len(fired); k++ {
			if fired[k].at < fired[k-1].at {
				return false
			}
			if fired[k].at == fired[k-1].at && fired[k].seq < fired[k-1].seq {
				return false
			}
		}
		return len(fired) == 50
	}
	if err := quickCheck50(f); err != nil {
		t.Error(err)
	}
}

func quickCheck50(f func(uint32) bool) error {
	for i := uint32(1); i <= 50; i++ {
		if !f(i * 2654435761) {
			return errAt(i)
		}
	}
	return nil
}

type errAt uint32

func (e errAt) Error() string { return "property failed" }

type spanRec struct {
	tags       []int
	froms, tos []float64
}

func (s *spanRec) Span(tag int, from, to float64) {
	s.tags = append(s.tags, tag)
	s.froms = append(s.froms, from)
	s.tos = append(s.tos, to)
}

func TestSleepAsReportsSpans(t *testing.T) {
	e := New()
	rec := &spanRec{}
	e.Spawn("p", func(p *Proc) {
		p.Observe(rec)
		p.SleepAs(3, 1.5)
		p.Sleep(0.5) // untagged: no span
		p.SleepAs(1, 2.0)
	})
	e.RunAll()
	if len(rec.tags) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.tags))
	}
	if rec.tags[0] != 3 || rec.froms[0] != 0 || rec.tos[0] != 1.5 {
		t.Errorf("span 0 = tag %d [%v,%v]", rec.tags[0], rec.froms[0], rec.tos[0])
	}
	if rec.tags[1] != 1 || rec.froms[1] != 2.0 || rec.tos[1] != 4.0 {
		t.Errorf("span 1 = tag %d [%v,%v]", rec.tags[1], rec.froms[1], rec.tos[1])
	}
	if e.Now() != 4.0 {
		t.Errorf("end time = %v", e.Now())
	}
}

func TestSleepAsWithoutObserver(t *testing.T) {
	e := New()
	var woke float64
	e.Spawn("p", func(p *Proc) {
		p.SleepAs(2, 1.25) // no observer attached: plain sleep
		woke = p.Now()
	})
	e.RunAll()
	if woke != 1.25 {
		t.Errorf("woke at %v, want 1.25", woke)
	}
}
