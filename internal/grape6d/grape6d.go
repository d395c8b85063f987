// Package grape6d is the multi-tenant GRAPE service scheduler: many
// concurrent simulation sessions multiplexed over one shared fleet of
// emulated board.Array attachments, the way the real GRAPE-6 facility
// queued many users' host programs onto one machine (the system paper,
// astro-ph/0310702, describes exactly this time-sharing — the sustained
// Tflops of the SC'03 paper depend on the silicon never idling while any
// one host is in its O(N) corrector phase).
//
// A session has one force request in flight, as a host sends one block's
// i-particles to its GRAPE in one transaction and waits (eq. 10 charges
// T_comm once per block). Session.ForcesInto serves its own request on
// the caller's goroutine: it takes a ticket, and once the ticket is at
// the head of the scheduler's first-come-first-served queue and an array
// is free, it claims that array, evaluates straight on the caller's slabs
// and returns with the cycles the array reported. The scheduler runs no
// goroutines of its own. Requests are never packed together and users
// are never rate-limited — the machine paper shares the installation by
// partitioning clusters at the network boards.
//
// Swapping by generation: sessions keep a host-side j-image; an array
// swaps a tenant in by reloading that image (the board's LoadJ copies it
// and places its first page without allocating; a j-set larger than the
// chips is a multi-page set every force pass streams through them) unless
// it already holds the image's current generation, and a request prefers a free array that does. The swap
// changes which silicon computes, never what is computed: a prediction
// depends only on (particle, t) and the reduction is exact integer
// addition, so a session that bounced between arrays produces the same
// trajectory as one that owned an array outright. While one session is in
// its host phase, another session's evaluation occupies the fleet.
//
// The scheduler keeps no predictor state: the array's force pass predicts
// a swapped-in image itself, and Session.Yield and Session.BeginPredict
// are no-ops.
//
// The non-negotiable invariant: every session's trajectory and cycle
// accounting are bit-identical to the same run executed alone on a
// dedicated array. Overlap shares silicon occupancy, never arithmetic;
// the golden-hash suite pins this through the scheduler path.
//
// A Session implements gbackend.Array, so the host-side GRAPE library
// (gbackend.NewBorrowed) and the Hermite integrator run unchanged on a
// shared fleet — gbackend is a client of the scheduler instead of the
// owner of the boards. The daemon (Server) hosts each session as a
// core.Simulator on its lease: one host program for dedicated and shared
// runs.
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
}

// Quota is empty and Attach ignores it. Sessions have no chip-time
// budgets: no client ever set one, and the machine paper shares the
// installation by partitioning, not by rate-limiting. The type stays
// because the benchmark module calls Attach(name, Quota{}).
type Quota struct{}

// Scheduler multiplexes sessions over the fleet. Each ForcesInto call
// claims a free array under mu, swaps its session's j-image in if the
// array does not hold the current generation, and evaluates on its own
// goroutine.
type Scheduler struct {
	ibatch int // i-particles per pipeline load (chip.Config.IBatch: 48)
	start  time.Time

	mu       sync.Mutex
	cond     *sync.Cond // callers park here; claims, completions and releases broadcast
	slots    []*slot
	sessions []*Session
	nextID   int   // next session id; monotonic, never reused
	tickets  int64 // ForcesInto calls admitted so far: the next call's ticket
	head     int64 // ticket of the oldest call that has not claimed an array
	closed   bool

	fill fillHist
}

// slot is one array of the fleet.
type slot struct {
	idx      int
	arr      *board.Array
	resident *Session // tenant whose j-image the array holds (nil: none)
	gen      uint64   // generation of the resident image this slot holds
	busy     bool     // a force call or an UpdateJ write-through is operating the array

	swaps     int64
	busyNanos int64
	loads     int64 // pipeline loads dispatched through this slot
}

// NewScheduler builds the fleet.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Fleet <= 0 {
		cfg.Fleet = 1
	}
	hw := cfg.HW
	if hw == (board.Config{}) {
		hw = board.Default
	}
	d := &Scheduler{start: time.Now()}
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < cfg.Fleet; i++ {
		d.slots = append(d.slots, &slot{idx: i, arr: board.New(hw)})
	}
	d.ibatch = d.slots[0].arr.Config().Chip.IBatch()
	return d
}

// HW returns the fleet's resolved per-array hardware configuration.
func (d *Scheduler) HW() board.Config { return d.slots[0].arr.Config() }

// TimeFor converts model cycles to seconds of hardware time on one
// fleet array.
func (d *Scheduler) TimeFor(cycles int64) float64 { return d.slots[0].arr.TimeFor(cycles) }

// Attach admits a new session; the Quota is ignored. It fails once the
// scheduler is closed.
func (d *Scheduler) Attach(name string, _ Quota) (*Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("grape6d: scheduler closed")
	}
	s := &Session{
		sched: d,
		name:  name,
		gen:   1, // slot.gen zero-value 0 never matches a fresh session
	}
	// Session ids come off a monotonic counter, so an id is never reused
	// within one scheduler — a stale client holding a detached session's
	// id can never conflate it with a later tenant.
	s.id = d.nextID
	d.nextID++
	d.sessions = append(d.sessions, s)
	return s, nil
}

// Close drains: it waits until every ForcesInto already admitted at the
// time of the call has returned and no array is busy (an UpdateJ
// write-through included), then closes the fleet. Detach remains callable
// afterwards; a ForcesInto after Close panics.
func (d *Scheduler) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	// A claimed call holds its array busy until it completes, so once
	// every ticket has claimed and no array is busy, every call is done.
	for d.head != d.tickets || d.busyLocked() {
		d.cond.Wait()
	}
	d.mu.Unlock()
	for _, sl := range d.slots {
		sl.arr.Close()
	}
}

// busyLocked reports whether any array is being operated. Callers hold
// d.mu.
func (d *Scheduler) busyLocked() bool {
	for _, sl := range d.slots {
		if sl.busy {
			return true
		}
	}
	return false
}

// Fleet returns the number of array slots.
func (d *Scheduler) Fleet() int { return len(d.slots) }
