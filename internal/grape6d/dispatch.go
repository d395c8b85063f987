package grape6d

import (
	"fmt"
	"time"
)

// crew is one slot's dispatcher goroutine: park until a session has
// dispatchable work, serve its request, repeat. All scheduling state is
// examined under d.mu; the hardware section of serve runs unlocked so
// crews on different slots overlap — one session's force
// evaluation occupies this slot's silicon while another session is in
// its host phase (or on another slot).
//
//grape:hotpath
func (d *Scheduler) crew(sl *slot) {
	defer d.crews.Done()
	//grapelint:ignore hotblock one-time acquisition at crew startup; the loop then holds the lock except through cond.Wait parks and serve's unlocked hardware section
	d.mu.Lock()
	for {
		if d.closed && !d.pendingLocked() {
			// Close drains: crews keep serving until every admitted
			// request has returned (readyLocked bypasses quotas once
			// closed), so no ForcesInto is left hanging.
			d.mu.Unlock()
			return
		}
		s := d.pick(sl, d.now())
		if s == nil {
			//grapelint:ignore hotblock the dispatcher's park: taken only when no session has dispatchable work (nothing pending, or quota debt)
			d.cond.Wait()
			continue
		}
		d.serve(sl, s)
	}
}

// pick chooses the next session this slot should serve, or nil if none
// is dispatchable now (after arming the wake timer for the earliest
// quota refill): plain round-robin over the sessions, whichever image the
// slot holds. Callers hold d.mu.
//
//grape:noalloc
func (d *Scheduler) pick(sl *slot, now time.Time) *Session {
	if sl.busy {
		// An UpdateJ write-through is operating this slot's array
		// unlocked; it broadcasts when done. Dispatching now would run two
		// operations on the same silicon concurrently.
		return nil
	}
	var wake time.Time
	n := len(d.sessions)
	for k := 0; k < n; k++ {
		s := d.sessions[(d.rr+k)%n]
		if s.serving {
			continue
		}
		ok, w := s.readyLocked(now)
		if ok {
			d.rr = (d.rr + k + 1) % n
			return s
		}
		wake = mergeWake(wake, w)
	}
	if !wake.IsZero() {
		d.wakeAtLocked(now, wake)
	}
	return nil
}

// pendingLocked reports whether any session has an admitted ForcesInto
// that has not returned yet. Callers hold d.mu.
//
//grape:noalloc
func (d *Scheduler) pendingLocked() bool {
	for _, s := range d.sessions {
		if s.admitted != s.turn {
			return true
		}
	}
	return false
}

// mergeWake folds candidate re-examination time t into the running
// earliest wake (zero times mean "no wake needed").
//
//grape:noalloc
func mergeWake(wake, t time.Time) time.Time {
	if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
		return t
	}
	return wake
}

// readyLocked reports whether the session's request may dispatch now;
// when it may not but will, the second result is the earliest time to
// re-examine (quota refill).
//
//grape:noalloc
func (s *Session) readyLocked(now time.Time) (bool, time.Time) {
	if !s.queued {
		return false, time.Time{}
	}
	if s.sched.closed {
		// Drain mode: Close dispatches everything still pending right
		// away, bypassing quota throttling (which gates only when work
		// runs, never what it computes).
		return true, time.Time{}
	}
	if !s.bucket.allow(now) {
		if !s.inThrottle {
			s.inThrottle = true
			s.throttled++
		}
		return false, s.bucket.nextOK(now)
	}
	s.inThrottle = false
	return true, time.Time{}
}

// serve dispatches s's pending request on sl. Called with d.mu held; the
// hardware section (j-image swap, force evaluation) runs unlocked,
// guarded by sl.busy and s.serving so no other goroutine touches the
// slot's array or the session's j-image meanwhile. Returns with d.mu held.
//
// The evaluation runs straight on the caller's slabs and the session is
// charged the cycles the array returned — exactly what a dedicated
// attachment would have computed and reported. A swapped-in image is
// predicted by the array's own force pass, striped over its pool.
//
//grape:hotpath
func (d *Scheduler) serve(sl *slot, s *Session) {
	start := d.now()
	dst, is, t, eps := s.reqDst, s.reqIs, s.reqT, s.reqEps
	s.queued = false
	ni := len(is)
	loads := (ni + d.ibatch - 1) / d.ibatch

	// The slot's copy is current only if it holds this session's image at
	// its current generation — a session resident on several slots can
	// have fresh and stale copies at once, and LoadJ/UpdateJ bump the
	// generation rather than chase every copy.
	gen := s.gen
	swap := sl.resident != s || sl.gen != gen
	s.serving = true
	sl.busy = true
	sl.resident = s
	sl.gen = gen
	d.mu.Unlock()

	if swap {
		if err := sl.arr.LoadJ(s.jimg); err != nil {
			// Loads can only fail on malformed images, a client bug
			// caught at LoadJ staging time; reaching here is internal.
			panic(fmt.Sprintf("grape6d: swap-in for session %q: %v", s.name, err))
		}
	}
	charged := sl.arr.ForcesInto(dst[:ni], t, is, eps)

	elapsed := d.now().Sub(start)
	//grapelint:ignore hotblock reacquire after the unlocked hardware section; the slot's crew is the only goroutine that reaches here for this slot
	d.mu.Lock()
	s.reqDst, s.reqIs = nil, nil // do not retain the caller's slabs
	s.reqCycles = charged
	s.bucket.charge(sl.arr.TimeFor(charged))
	s.cycles += charged
	sl.busyNanos += elapsed.Nanoseconds()
	if swap {
		sl.swaps++
	}
	sl.loads += int64(loads)
	d.fill.add(ni, loads, d.ibatch)
	s.serving = false
	sl.busy = false
	d.cond.Broadcast()
}
