// Package grape6d is the multi-tenant GRAPE service scheduler: many
// concurrent simulation sessions multiplexed over one shared fleet of
// emulated board.Array attachments, the way the real GRAPE-6 facility
// queued many users' host programs onto one machine (the system paper,
// astro-ph/0310702, describes exactly this time-sharing — the sustained
// Tflops of the SC'03 paper depend on the silicon never idling while any
// one host is in its O(N) corrector phase).
//
// Dispatch is plain round-robin over the sessions with work, under two
// rules:
//
//   - Swapping by generation: sessions keep a host-side j-image; an array
//     slot swaps a tenant in by reloading that image (the board's LoadJ
//     restages without allocating, and j-sets larger than the chips page
//     through the LoadJRange streaming path) unless it already holds the
//     image's current generation. The swap changes which silicon
//     computes, never what is computed: chip.WriteJ slot patching is
//     pinned bit-identical to a cold re-predict, so a session that bounced
//     between slots produces the same trajectory as one that owned an
//     array outright. While one session is in its host phase, another
//     session's evaluation occupies the fleet.
//
//   - Admission control and per-session chip-time quotas: dispatch
//     charges each session the model chip-seconds of its evaluations
//     (board.Array.TimeFor over the cycles the array returned), debited
//     from a token bucket, so a greedy tenant is throttled instead of
//     starving the rest.
//
// The scheduler keeps no predictor state: the array's force pass predicts
// a swapped-in image itself, and Session.Yield and Session.BeginPredict
// are no-ops.
//
// A session has one force request in flight, as a host sends one block's
// i-particles to its GRAPE in one transaction and waits (eq. 10 charges
// T_comm once per block): ForcesInto posts the caller's slabs, a slot's
// dispatcher evaluates straight on them and the caller returns with the
// cycles the array reported. Requests are never packed together — the
// machine paper shares the installation by partitioning clusters at the
// network boards, not by merging one host's requests.
//
// The non-negotiable invariant: every session's trajectory and cycle
// accounting are bit-identical to the same run executed alone on a
// dedicated array. Overlap shares silicon occupancy, never arithmetic;
// the golden-hash suite pins this through the scheduler path.
//
// A Session implements gbackend.Array, so the host-side GRAPE library
// (gbackend.NewBorrowed) and the Hermite integrator run unchanged on a
// shared fleet — gbackend is a client of the scheduler instead of the
// owner of the boards.
package grape6d

import (
	"fmt"
	"sync"
	"time"

	"grape6/internal/board"
)

// Config parameterises a Scheduler.
type Config struct {
	// Fleet is the number of board.Array attachments in the shared
	// fleet (default 1). Each is one independently schedulable unit of
	// silicon: a disjoint chip partition in the real machine's terms.
	Fleet int

	// HW is the per-array hardware configuration (zero value:
	// board.Default, the production 4-board attachment).
	HW board.Config

	// Now is the clock used for quota accounting (nil: time.Now). Tests
	// inject a manual clock to make throttling deterministic; after
	// moving a manual clock, call Kick.
	Now func() time.Time
}

// Scheduler multiplexes sessions over the fleet. One dispatcher
// goroutine per array slot picks the next runnable session round-robin,
// swaps its j-image in if the slot does not hold its current generation,
// and evaluates its pending request.
type Scheduler struct {
	ibatch int // i-particles per pipeline load (chip.Config.IBatch: 48)
	now    func() time.Time

	mu       sync.Mutex
	cond     *sync.Cond // dispatchers and callers park here; requests, completions and releases broadcast
	slots    []*slot
	sessions []*Session
	rr       int // round-robin pick cursor
	nextID   int // next session id; monotonic, never reused
	closed   bool
	start    time.Time

	wake   *time.Timer // earliest pending quota-refill wake
	wakeAt time.Time

	crews sync.WaitGroup

	fill fillHist
}

// slot is one array of the fleet.
type slot struct {
	idx      int
	arr      *board.Array
	resident *Session // tenant whose j-image the array holds (nil: none)
	gen      uint64   // generation of the resident image this slot holds
	busy     bool     // a goroutine is operating the array right now

	swaps     int64
	busyNanos int64
	loads     int64 // pipeline loads dispatched through this slot
}

// NewScheduler builds the fleet and starts one dispatcher per slot.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Fleet <= 0 {
		cfg.Fleet = 1
	}
	hw := cfg.HW
	if hw == (board.Config{}) {
		hw = board.Default
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	d := &Scheduler{now: now, start: now()}
	d.cond = sync.NewCond(&d.mu)
	d.wake = time.AfterFunc(time.Hour, d.kickLocked)
	d.wake.Stop()
	for i := 0; i < cfg.Fleet; i++ {
		sl := &slot{idx: i, arr: board.New(hw)}
		d.slots = append(d.slots, sl)
	}
	d.ibatch = d.slots[0].arr.Config().Chip.IBatch()
	d.crews.Add(len(d.slots))
	for _, sl := range d.slots {
		go d.crew(sl)
	}
	return d
}

// kickLocked is the wake timer's callback: re-examine schedulability.
func (d *Scheduler) kickLocked() {
	d.mu.Lock()
	d.wakeAt = time.Time{}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Kick forces the dispatchers to re-examine schedulability. Tests with a
// manual Config.Now clock call it after advancing the clock (the real
// wake timer runs on wall time and cannot see a manual clock move).
func (d *Scheduler) Kick() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// wakeAtLocked arms the shared wake timer for time t, with now the
// caller's clock reading (callers hold mu; the noalloc dispatch path
// cannot read the injectable clock field itself).
//
//grape:noalloc
func (d *Scheduler) wakeAtLocked(now, t time.Time) {
	if !d.wakeAt.IsZero() && !t.Before(d.wakeAt) {
		return
	}
	d.wakeAt = t
	delay := t.Sub(now)
	if delay < 0 {
		delay = 0
	}
	d.wake.Reset(delay)
}

// HW returns the fleet's resolved per-array hardware configuration.
func (d *Scheduler) HW() board.Config { return d.slots[0].arr.Config() }

// TimeFor converts model cycles to seconds of hardware time on one
// fleet array.
func (d *Scheduler) TimeFor(cycles int64) float64 { return d.slots[0].arr.TimeFor(cycles) }

// Attach admits a new session under the given quota (zero Quota:
// unlimited). It fails once the scheduler is closed.
func (d *Scheduler) Attach(name string, q Quota) (*Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("grape6d: scheduler closed")
	}
	s := &Session{
		sched: d,
		name:  name,
		quota: q,
		gen:   1, // slot.gen zero-value 0 never matches a fresh session
	}
	s.bucket.init(q, d.now())
	// Session ids come off a monotonic counter, so an id is never reused
	// within one scheduler — a stale client holding a detached session's
	// id can never conflate it with a later tenant.
	s.id = d.nextID
	d.nextID++
	d.sessions = append(d.sessions, s)
	return s, nil
}

// Close drains outstanding requests — every ForcesInto already admitted
// at the time of the call is dispatched, bypassing quota throttles, and
// returns — then stops the dispatchers and closes the fleet. Detach
// remains callable afterwards; a ForcesInto after Close panics.
func (d *Scheduler) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.crews.Wait()
	d.wake.Stop()
	for _, sl := range d.slots {
		sl.arr.Close()
	}
}

// Fleet returns the number of array slots.
func (d *Scheduler) Fleet() int { return len(d.slots) }
