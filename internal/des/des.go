//go:build go1.23

// Package des is a deterministic discrete-event simulation kernel with
// coroutine processes. It provides the virtual time base on which the
// network simulator (internal/simnet) and the parallel N-body algorithms
// (internal/parallel) run: simulated hosts are ordinary Go functions that
// Sleep in virtual time and exchange messages, and events fire in (time,
// creation-order) sequence — so every simulation is reproducible bit for
// bit.
//
// A process is an iter.Pull coroutine: the scheduler resumes it with a
// direct runtime switch and regains control when it suspends, finishes or
// panics. Only the scheduler (Run/RunAll) resumes a process and only the
// process suspends itself, so exactly one body runs at a time whatever
// GOMAXPROCS is, and nothing here needs a lock. (The module's language
// level is go 1.22, iter is go 1.23: hence the build line above.)
//
// The kernel is built for scale (full-machine co-simulations run hundreds
// of ranks and tens of millions of events): events are plain pointer-free
// values in an indexed 4-ary heap, same-tick events bypass the heap
// through a FIFO ready ring, and the steady-state event loop — Sleep,
// Park/Wake, handler events — performs no allocation at all.
package des

import (
	"fmt"
	"iter"
	"math"
)

// Event kinds. A scheduled event is one of:
//
//   - evResume: hand the virtual CPU to process procs[arg] (Sleep wake-ups
//     and Waiter.Wake — the vast majority of events in a co-simulation);
//   - evHandler: call registered handler hid with arg (simnet message
//     delivery, for one).
const (
	evResume uint8 = iota
	evHandler
)

// event is a scheduled wake-up: a plain value with no pointers, ordered by
// (at, seq). Keeping the event pointer-free means the queue arrays are
// never scanned by the garbage collector, and value storage removes the
// per-event allocation of the earlier *event + closure representation.
type event struct {
	at   float64
	seq  uint64 // tie-breaker: creation order
	arg  uint64 // proc index or handler argument
	kind uint8
	hid  uint8 // handler id for evHandler
}

// before reports whether a fires before b: (time, creation-order).
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// HandlerID names a handler registered with RegisterHandler.
type HandlerID uint8

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now float64
	seq uint64

	// heap is a 4-ary min-heap on (at, seq) holding strictly-future
	// events. 4-ary beats binary here: sift paths are half as long and the
	// four-child comparison runs over one cache line of 32-byte events.
	heap []event

	// ready is a FIFO ring of events due exactly at the current virtual
	// time. Scheduling at t <= now appends here in O(1) — the batched
	// same-tick fan-out path (process start broadcasts, zero-delay chains,
	// Wake(now) message deliveries) — and the scheduler spins this ring
	// dry before consulting the heap. FIFO order is (time, seq) order
	// because every entry carries the same time and seq is the append
	// order; the pop rule still compares against the heap top so older
	// heap events at the same tick keep their place.
	ready []event
	rhead int

	handlers []func(arg uint64)

	// procs indexes every spawned process; evResume events carry the
	// index, not the pointer, keeping events pointer-free.
	procs []*Proc

	active  *Proc // the currently executing process, nil in the scheduler
	nproc   int
	running bool // inside Run/RunAll (re-entrance guard)
}

// New returns an engine at virtual time 0.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// checkFinite rejects NaN and ±Inf scheduling times: NaN silently fails
// every ordering comparison (it would corrupt heap ordering and make the
// event unreachable), and an infinite time can never fire.
func checkFinite(t float64, what string) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		//grapelint:ignore noalloc cold panic path: a non-finite time is a caller bug and the simulation dies here
		panic(fmt.Sprintf("des: non-finite %s %v", what, t))
	}
}

// checkSleep rejects negative and non-finite sleep durations. Kept out
// of Sleep itself so the panic's boxing stays off the noalloc hot path.
func checkSleep(d float64) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		//grapelint:ignore noalloc cold panic path: an invalid duration is a caller bug and the simulation dies here
		panic(fmt.Sprintf("des: invalid sleep %v", d))
	}
}

// schedule enqueues an event at t (already clamped to >= now): same-tick
// events go to the ready ring in O(1), future events into the heap.
//
//grape:noalloc
func (e *Engine) schedule(t float64, kind, hid uint8, arg uint64) {
	e.seq++
	ev := event{at: t, seq: e.seq, arg: arg, kind: kind, hid: hid}
	if t <= e.now {
		ev.at = e.now
		e.ready = append(e.ready, ev)
		return
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// siftUp restores the heap property after appending at index i.
//
//grape:noalloc
func (e *Engine) siftUp(i int) {
	ev := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = ev
}

// popHeap removes and returns the minimum heap event.
//
//grape:noalloc
func (e *Engine) popHeap() event {
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		// Sift the displaced last element down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for k := c + 1; k < end; k++ {
				if e.heap[k].before(e.heap[m]) {
					m = k
				}
			}
			if !e.heap[m].before(last) {
				break
			}
			e.heap[i] = e.heap[m]
			i = m
		}
		e.heap[i] = last
	}
	return top
}

// next pops the earliest pending event with at <= limit, honouring the
// global (time, seq) order across the ready ring and the heap.
//
//grape:noalloc
func (e *Engine) next(limit float64) (event, bool) {
	if e.rhead < len(e.ready) {
		r := e.ready[e.rhead]
		if len(e.heap) == 0 || r.before(e.heap[0]) {
			if r.at > limit {
				return event{}, false
			}
			e.rhead++
			if e.rhead == len(e.ready) {
				e.ready = e.ready[:0]
				e.rhead = 0
			}
			return r, true
		}
	}
	if len(e.heap) == 0 || e.heap[0].at > limit {
		return event{}, false
	}
	return e.popHeap(), true
}

// dispatch executes one popped event in scheduler context.
func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case evResume:
		e.handoff(e.procs[ev.arg])
	default: // evHandler
		e.handlers[ev.hid](ev.arg)
	}
}

// RegisterHandler registers a reusable event handler and returns its id.
// A handler is how scheduler-context work is scheduled: its caller keeps
// its own state, and AtHandler stores only (id, arg) in the event, no
// closure. Handlers cannot be unregistered; an engine supports at most
// 256.
func (e *Engine) RegisterHandler(fn func(arg uint64)) HandlerID {
	if len(e.handlers) >= 256 {
		panic("des: handler table full")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers) - 1)
}

// AtHandler schedules handler h to run with arg at absolute virtual time
// t (clamped to now, must be finite). It performs no allocation beyond
// amortized queue growth.
//
//grape:noalloc
func (e *Engine) AtHandler(t float64, h HandlerID, arg uint64) {
	checkFinite(t, "event time")
	if t < e.now {
		t = e.now
	}
	e.schedule(t, evHandler, uint8(h), arg)
}

// SpanObserver receives attributed virtual-time spans from SleepAs. The
// tag space is owned by the caller (internal/vtrace uses its Phase
// constants); [from, to] are absolute virtual times.
type SpanObserver interface {
	Span(tag int, from, to float64)
}

// Proc is a simulated process: a coroutine that runs only when the engine
// hands it the virtual CPU.
type Proc struct {
	eng  *Engine
	name string
	idx  int32
	obs  SpanObserver

	// The two ends of the process's iter.Pull coroutine: the scheduler
	// calls resume (Pull's next) to run the body until it calls suspend
	// (Pull's yield), returns or panics. No value travels, only control.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
}

// Observe attaches a span observer to the process (nil detaches). With no
// observer, SleepAs is exactly Sleep — the zero-overhead fast path.
func (p *Proc) Observe(o SpanObserver) { p.obs = o }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn creates a process executing fn, scheduled to start at the current
// virtual time. fn runs on its own stack but never concurrently with other
// processes or the scheduler. A process that is still suspended when the
// engine is dropped keeps that stack (a parked goroutine, ~8 KB) for the
// life of the program: the pull's stop is never called on a live process,
// because stopping makes suspend return and the body would run on.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, idx: int32(len(e.procs))}
	e.procs = append(e.procs, p)
	e.nproc++
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		fn(p)
		e.nproc--
		e.active = nil
	})
	e.schedule(e.now, evResume, 0, uint64(p.idx))
	return p
}

// handoff gives the virtual CPU to p until it suspends, finishes or panics
// (see exitRun). Must be called from scheduler context.
//
//grape:noalloc
func (e *Engine) handoff(p *Proc) {
	e.active = p
	//grapelint:ignore noalloc iter.Pull's next: a runtime coroutine switch, pinned at 0 allocs/op by BenchmarkSleepProcCycle
	p.resume()
}

// yield returns control from the active process to the scheduler and
// blocks until resumed.
//
//grape:noalloc
func (p *Proc) yield() {
	p.eng.active = nil
	//grapelint:ignore noalloc iter.Pull's yield: a runtime coroutine switch, pinned at 0 allocs/op by BenchmarkSleepProcCycle
	p.suspend(struct{}{})
}

// Sleep suspends the process for a finite virtual duration d ≥ 0. The
// wake-up is a value event carrying the process index — no allocation.
//
//grape:noalloc
func (p *Proc) Sleep(d float64) {
	checkSleep(d)
	e := p.eng
	e.schedule(e.now+d, evResume, 0, uint64(p.idx))
	p.yield()
}

// SleepAs suspends like Sleep and attributes the elapsed interval to tag
// on the attached observer — the hook the co-simulation's phase
// accounting (internal/vtrace) rides on. Without an observer it is
// exactly Sleep.
func (p *Proc) SleepAs(tag int, d float64) {
	if p.obs == nil {
		p.Sleep(d)
		return
	}
	from := p.eng.now
	p.Sleep(d)
	p.obs.Span(tag, from, p.eng.now)
}

// Waiter suspends the process until Wake is called with it.
type Waiter struct {
	p       *Proc
	waiting bool
}

// NewWaiter returns a parking spot for p. Waiters are reusable across
// Park/Wake cycles; hot paths should allocate one per process and reuse
// it rather than calling NewWaiter per wait.
func (p *Proc) NewWaiter() *Waiter { return &Waiter{p: p} }

// Park blocks the process until Wake. Calling Park while already parked is
// a programming error.
func (w *Waiter) Park() {
	if w.waiting {
		panic("des: double park")
	}
	w.waiting = true
	w.p.yield()
}

// Wake schedules the parked process to resume at finite virtual time t
// (or now, if t is in the past). It is a no-op if the process is not
// parked — the caller is responsible for pairing Park/Wake correctly.
// Must be called from scheduler context (a handler) or from another
// process.
//
//grape:noalloc
func (w *Waiter) Wake(t float64) {
	if !w.waiting {
		return
	}
	checkFinite(t, "wake time")
	w.waiting = false
	e := w.p.eng
	if t < e.now {
		t = e.now
	}
	e.schedule(t, evResume, 0, uint64(w.p.idx))
}

// run is Run/RunAll: it guards against re-entrant calls — invoking the
// scheduler from process context or from a handler would resume a
// coroutine from inside itself — and fires events in order up to until.
func (e *Engine) run(what string, until float64) float64 {
	if e.active != nil {
		panic(fmt.Sprintf("des: Engine.%s called from process %q: the scheduler is already running", what, e.active.name))
	}
	if e.running {
		panic(fmt.Sprintf("des: Engine.%s called re-entrantly from an event handler", what))
	}
	e.running = true
	defer e.exitRun()
	for {
		ev, ok := e.next(until)
		if !ok {
			return e.now
		}
		e.now = ev.at
		e.dispatch(ev)
	}
}

// exitRun leaves the engine reusable however run ended. A panic (or a
// Goexit, such as t.Fatal) in a process body comes out of its resume with
// the process still active: that process is over, no longer live, and a
// panic goes on to the caller of Run/RunAll with the process name and the
// virtual time prepended. One from a handler passes through as is.
func (e *Engine) exitRun() {
	e.running = false
	if p := e.active; p != nil {
		e.active = nil
		e.nproc--
		if r := recover(); r != nil {
			panic(fmt.Sprintf("des: process %q panicked at t=%v: %v", p.name, e.now, r))
		}
	}
}

// Run processes events until the queue is empty or the virtual clock
// exceeds until. It returns the final virtual time.
func (e *Engine) Run(until float64) float64 { return e.run("Run", until) }

// RunAll processes events until the queue is empty.
func (e *Engine) RunAll() float64 { return e.run("RunAll", math.Inf(1)) }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.ready) - e.rhead }

// Live returns the number of live (spawned, not finished) processes. A
// non-zero value after RunAll indicates deadlocked processes.
func (e *Engine) Live() int { return e.nproc }
