package grape6d

import (
	"fmt"
	"time"

	"grape6/internal/chip"
)

// ForcesInto implements gbackend.Array: it evaluates the request on dst,
// on the caller's goroutine, and returns the model cycles charged —
// exactly what a dedicated array would have reported. Calls are served
// first come, first served: each takes a ticket, and the call at the head
// claims a free array once no other call of its session is being served.
// So a session's calls run one after another in arrival order, and calls
// of different sessions overlap across the fleet. dst and is belong to
// the scheduler until the call returns. It panics on a detached session
// or a closed scheduler.
//
// The hardware section (j-image swap, force evaluation) runs unlocked,
// guarded by sl.busy and s.serving so no other goroutine touches the
// array or the session's j-image meanwhile. A swapped-in image is
// predicted by the array's own force pass, striped over its pool.
//
//grape:hotpath
func (s *Session) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	d := s.sched
	//grapelint:ignore hotblock admission: one short critical section takes a ticket and, when the fleet is idle, claims an array at once
	d.mu.Lock()
	if s.detached || d.closed {
		d.mu.Unlock()
		panic(fmt.Sprintf("grape6d: ForcesInto on detached session %q", s.name))
	}
	ticket := d.tickets
	d.tickets++
	s.calls++
	sl := d.claimLocked(s, ticket)
	for sl == nil {
		//grapelint:ignore hotblock the FIFO park: taken only while an older call, another call of this session or every array is ahead of this one
		d.cond.Wait()
		sl = d.claimLocked(s, ticket)
	}
	d.head++
	//grapelint:ignore deterministic the clock times array occupancy for Stats only; no force, cycle count or claim reads it
	start := time.Now()
	ni := len(is)
	loads := (ni + d.ibatch - 1) / d.ibatch

	// The array's copy is current only if it holds this session's image at
	// its current generation — a session resident on several arrays can
	// have fresh and stale copies at once, and LoadJ/UpdateJ bump the
	// generation rather than chase every copy.
	swap := sl.resident != s || sl.gen != s.gen
	s.serving, sl.busy = true, true
	sl.resident, sl.gen = s, s.gen
	s.reqs++
	d.cond.Broadcast() // the next ticket may claim another array
	d.mu.Unlock()

	if swap {
		if err := sl.arr.LoadJ(s.jimg); err != nil {
			// Loads can only fail on malformed images, a client bug
			// caught at LoadJ staging time; reaching here is internal.
			panic(fmt.Sprintf("grape6d: swap-in for session %q: %v", s.name, err))
		}
	}
	cycles := sl.arr.ForcesInto(dst[:ni], t, is, eps)
	elapsed := time.Since(start)

	//grapelint:ignore hotblock reacquire after the unlocked hardware section to account for it and release the array
	d.mu.Lock()
	s.cycles += cycles
	sl.busyNanos += elapsed.Nanoseconds()
	if swap {
		sl.swaps++
	}
	sl.loads += int64(loads)
	d.fill.add(ni, loads, d.ibatch)
	s.serving, sl.busy = false, false
	s.calls--
	d.cond.Broadcast()
	d.mu.Unlock()
	return cycles
}

// claimLocked returns the array the call holding ticket may operate now,
// or nil if it must wait: it is not at the head of the queue, another
// call of its session is being served, or every array is busy. Among free
// arrays it prefers one holding the session's current image, then an
// empty one. Callers hold d.mu.
//
//grape:noalloc
func (d *Scheduler) claimLocked(s *Session, ticket int64) *slot {
	if ticket != d.head || s.serving {
		return nil
	}
	var free *slot
	for _, sl := range d.slots {
		switch {
		case sl.busy:
		case sl.resident == s && sl.gen == s.gen:
			return sl
		case free == nil || free.resident != nil && sl.resident == nil:
			free = sl
		}
	}
	return free
}
