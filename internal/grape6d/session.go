package grape6d

import (
	"fmt"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/nbody"
)

// Session is one tenant of the scheduler. It implements gbackend.Array,
// so a host program built on gbackend (and the Hermite integrator above
// it) runs unchanged over the shared fleet: gbackend.NewBorrowed(sess)
// is a drop-in for gbackend.New(board.New(cfg)), bit for bit.
//
// A session keeps the canonical host-side copy of its j-set in hardware
// format (the j-image). The fleet holds at most Fleet tenants' images in
// silicon at once; a dispatch for a non-resident tenant first swaps its
// image in via the array's allocation-free LoadJ (paging through the
// streaming path when the set exceeds chip memory). Swapping changes
// which silicon computes, never what is computed.
type Session struct {
	sched *Scheduler
	name  string
	id    int

	// All mutable state below is guarded by sched.mu.
	detached bool
	serving  bool // one of this session's ForcesInto calls is operating an array
	calls    int  // ForcesInto calls admitted and not yet returned

	// Canonical j-image and its id → slot index. gen counts image
	// generations: it starts at 1 and advances on every change that is
	// not written through to silicon. A slot's copy is current only when
	// slot.gen matches — a session can be resident on several slots at
	// once (concurrent dispatches land wherever silicon is free), and a
	// single staleness flag cannot say *which* copies went stale.
	jimg []chip.JParticle
	byID nbody.IDIndex
	ids  []int // byID's rebuild input, reused across loads
	gen  uint64

	// Statistics (see SessionStats).
	reqs   int64
	cycles int64
}

// Name returns the session's attach name.
func (s *Session) Name() string { return s.name }

// ID returns the session's dense scheduler-unique id.
func (s *Session) ID() int { return s.id }

// LoadJ implements gbackend.Array: it installs ps as the session's
// j-image. The silicon copies are refreshed lazily at the next dispatch
// on each slot (the generation bump marks every resident copy stale).
func (s *Session) LoadJ(ps []chip.JParticle) error {
	d := s.sched
	d.mu.Lock()
	defer d.mu.Unlock()
	// A dispatch in flight reads jimg unlocked during its swap-in; wait it
	// out before mutating the image underneath it.
	for s.serving {
		d.cond.Wait()
	}
	if s.detached {
		return fmt.Errorf("grape6d: session %q detached", s.name)
	}
	if !s.index(ps) {
		// Rejected before the image or its generation moved: the slots
		// holding this generation still hold what jimg says.
		s.index(s.jimg)
		return fmt.Errorf("grape6d: duplicate particle ids in the j-set of session %q", s.name)
	}
	if cap(s.jimg) < len(ps) {
		s.jimg = make([]chip.JParticle, len(ps))
	}
	s.jimg = s.jimg[:len(ps)]
	copy(s.jimg, ps)
	s.gen++
	return nil
}

// index points byID at the positions of ps and reports whether the ids
// are unique.
func (s *Session) index(ps []chip.JParticle) bool {
	s.ids = s.ids[:0]
	for i := range ps {
		s.ids = append(s.ids, ps[i].ID)
	}
	return s.byID.Rebuild(s.ids)
}

// UpdateJ implements gbackend.Array: it rewrites one particle of the
// j-image. If a slot holds the current generation of the image and is
// idle, the write goes through to that silicon immediately (chip.WriteJ
// slot patching is pinned bit-identical to a cold reload) and the slot
// is stamped with the new generation; every other resident copy is now
// one generation behind and the next dispatch there reloads the image
// wholesale — same bits either way. Once the scheduler is closed nothing
// writes through: Close may be shutting the arrays.
func (s *Session) UpdateJ(p chip.JParticle) error {
	d := s.sched
	d.mu.Lock()
	// A dispatch in flight reads jimg unlocked during its swap-in; wait it
	// out before mutating the image underneath it.
	for s.serving {
		d.cond.Wait()
	}
	if s.detached {
		d.mu.Unlock()
		return fmt.Errorf("grape6d: session %q detached", s.name)
	}
	k, ok := s.byID.Slot(p.ID)
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("grape6d: particle %d not loaded", p.ID)
	}
	s.jimg[k] = p
	var sl *slot
	for _, c := range d.slots {
		if c.resident == s && c.gen == s.gen && !c.busy {
			sl = c
			break
		}
	}
	s.gen++
	if sl == nil || d.closed {
		d.mu.Unlock()
		return nil
	}
	sl.gen = s.gen
	sl.busy = true
	d.mu.Unlock()
	err := sl.arr.UpdateJ(p)
	d.mu.Lock()
	sl.busy = false
	if err != nil {
		// The silicon copy is in an unknown state; force a full reload.
		sl.resident, sl.gen = nil, 0
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return err
}

// BeginPredict implements gbackend.Array as a no-op: the array predicts
// a swapped-in image in its own force pass, striped over its pool, so
// there is nothing for a session to start ahead of its dispatch.
func (s *Session) BeginPredict(float64) {}

// NJ implements gbackend.Array.
func (s *Session) NJ() int {
	s.sched.mu.Lock()
	defer s.sched.mu.Unlock()
	return len(s.jimg)
}

// Config implements gbackend.Array: the fleet's per-array hardware
// configuration.
func (s *Session) Config() board.Config { return s.sched.HW() }

// Yield accepts the integrator's host-phase hint (hermite.YieldBackend)
// and does nothing: requests are served in arrival order whatever a
// session's phase.
func (s *Session) Yield() {}

// Detach removes the session from the scheduler once every admitted
// ForcesInto has returned. The fleet keeps running for other tenants.
// Detach is idempotent.
func (s *Session) Detach() {
	d := s.sched
	d.mu.Lock()
	for s.calls != 0 {
		d.cond.Wait()
	}
	if s.detached {
		d.mu.Unlock()
		return
	}
	s.detached = true
	for i, t := range d.sessions {
		if t == s {
			d.sessions = append(d.sessions[:i], d.sessions[i+1:]...)
			break
		}
	}
	for _, sl := range d.slots {
		if sl.resident == s {
			sl.resident, sl.gen = nil, 0
		}
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Close implements gbackend.Array as an alias for Detach, so a borrowed
// gbackend.Backend over a session lease tears down cleanly.
func (s *Session) Close() { s.Detach() }
