// Package board emulates the GRAPE-6 packaging hierarchy above the chip
// (Sections 2 and 3.3-3.4 of the paper): the processor module (4 chips
// plus a block-floating-point summation FPGA), the processor board (8
// modules behind one broadcast network and one reduction network), and the
// multi-board attachment of up to 4 boards to a single host through a
// network board.
//
// All j-particles attached to one host are distributed across the chips'
// local memories in balanced contiguous chunks, a page at a time when the
// set outgrows their combined capacity; every pipeline calculates forces
// on the same i-particle set, and the partial forces are summed exactly
// by the FPGA reduction trees — so the merged result is bit-identical to
// a single-chip evaluation of the same j-set (the Section 3.4 property).
package board

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"grape6/internal/chip"
	"grape6/internal/nbody"
)

// Config describes the packaging of one host's GRAPE-6 attachment.
type Config struct {
	Chip            chip.Config
	ChipsPerModule  int // paper: 4
	ModulesPerBoard int // paper: 8
	Boards          int // boards attached to this host (paper benchmarks: 4)

	// ReduceCyclesPerStage is the pipeline latency added per level of the
	// reduction tree (module, board, network board).
	ReduceCyclesPerStage int
}

// Default is a single host's production attachment: 4 boards of 32 chips.
var Default = Config{
	Chip:                 chip.Default,
	ChipsPerModule:       4,
	ModulesPerBoard:      8,
	Boards:               4,
	ReduceCyclesPerStage: 4,
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ChipsPerModule <= 0 || c.ModulesPerBoard <= 0 || c.Boards <= 0 {
		return fmt.Errorf("board: non-positive packaging counts %d/%d/%d",
			c.ChipsPerModule, c.ModulesPerBoard, c.Boards)
	}
	if c.ReduceCyclesPerStage < 0 {
		return fmt.Errorf("board: negative reduction latency %d", c.ReduceCyclesPerStage)
	}
	return c.Chip.Validate()
}

// ChipsPerBoard returns the number of chips on one board (32 in
// production).
func (c Config) ChipsPerBoard() int { return c.ChipsPerModule * c.ModulesPerBoard }

// TotalChips returns the number of chips across all attached boards.
func (c Config) TotalChips() int { return c.ChipsPerBoard() * c.Boards }

// PeakFlops returns the attachment's peak speed under the 57-flops
// convention. One production board is 985.0 Gflops; the paper's
// 64-board machine totals 63.04 Tflops.
func (c Config) PeakFlops() float64 {
	return float64(c.TotalChips()) * c.Chip.PeakFlops()
}

// Array is the emulated multi-board attachment of one host.
//
// The loaded j-set lives host-side in load order (the frontend's RAM,
// which on the real machine also holds the canonical particle data) and
// reaches the chips in pages of at most MemCapacity slots per chip, each
// chip taking a balanced contiguous chunk of the page. A set that fits the
// chips' combined memory is one page, loaded once by LoadJ and rewritten
// slot by slot by UpdateJ; a larger set streams through the chips page by
// page on every force evaluation. The merged result is the same either
// way: the Section 3.4 partition invariance covers a split in time
// (pages) as it covers a split in space (chips).
//
// A force evaluation is one pass over (chip, j-range) spans per page: a
// span on a chip whose prediction cache is stale first predicts its own
// j-slots and then forces the i-batch against them — the chip's predictor
// pipeline feeding the force pipelines as j-particles stream from memory,
// with no barrier between the two. The spans are striped over a persistent
// worker pool: GOMAXPROCS goroutines spawned once (lazily, on the first
// force call), each with reusable partial slabs, parked on a job channel
// between calls — the emulation counterpart of the real chips running
// continuously. Workers claim spans with an atomic cursor, so every core
// participates even when the configuration has fewer chips than the host
// has cores; at GOMAXPROCS 1 the pool is one worker. Each worker
// pre-merges the partials of its spans and the slabs are reduced exactly
// afterwards (integer accumulator adds, so span striping cannot change a
// result bit — the Section 3.4 partition-invariance property applied
// within chips).
//
// Close releases the pool; a closed Array may keep being used (the pool
// respawns lazily). An Array that has run a force evaluation holds its
// pool's goroutines until Close.
//
// An Array serves one host: like the real hardware's memory bus, force
// evaluations on the same Array must not run concurrently with each other
// or with loads/updates (the worker slabs are reused between calls). No
// work is in flight between calls, so there is no overlap to sanction.
// Distinct Arrays are fully independent.
type Array struct {
	cfg   Config
	chips []*chip.Chip
	jhost []chip.JParticle // the loaded set in load order
	loc   nbody.IDIndex    // particle id → load position (jhost slot)
	ids   []int            // loc's rebuild input, reused across loads

	pageScratch []chip.Partial // per-page partials merged into dst

	mu      sync.Mutex                     // serializes pool spawn and Close (slow paths)
	workers atomic.Pointer[[]*forceWorker] // force paths read it lock-free

	fc forceCall // force-pass state, reused across calls
}

// span is one claimable unit of a force pass: slots [lo, hi) of one chip.
type span struct {
	chip   int
	lo, hi int
}

// minStripe floors the span length so the atomic claim overhead stays
// negligible against the per-slot work.
const minStripe = 64

// stripeLen returns the span length for striping `total` j-slots across
// the pool: about four claims per worker for dynamic load balance.
func stripeLen(total int) int {
	l := total / (4 * runtime.GOMAXPROCS(0))
	if l < minStripe {
		l = minStripe
	}
	return l
}

// appendSpans appends spans covering [0, nj) of chip ci in stripes of l.
func appendSpans(units []span, ci, nj, l int) []span {
	for lo := 0; lo < nj; lo += l {
		hi := lo + l
		if hi > nj {
			hi = nj
		}
		units = append(units, span{chip: ci, lo: lo, hi: hi})
	}
	return units
}

// New builds the attachment. It panics on invalid configuration.
func New(cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array{cfg: cfg}
	a.chips = make([]*chip.Chip, cfg.TotalChips())
	for i := range a.chips {
		a.chips[i] = chip.New(cfg.Chip)
	}
	return a
}

// Config returns the attachment's configuration.
func (a *Array) Config() Config { return a.cfg }

// NJ returns the number of loaded j-particles.
func (a *Array) NJ() int { return len(a.jhost) }

// LoadJ installs a j-set: it keeps a host copy in load order and places
// page 0 on the chips, chip c holding load positions [⌊c·n/nc⌋,
// ⌊(c+1)·n/nc⌋) of a one-page set of n (so each chip holds ≈ n/TotalChips
// particles, the GRAPE-6 local-memory design of Section 3.4). A set larger
// than the chips' combined memory is several pages, which force
// evaluations stream through the chips in turn.
func (a *Array) LoadJ(ps []chip.JParticle) error {
	a.jhost = append(a.jhost[:0], ps...)
	a.ids = a.ids[:0]
	for i := range ps {
		a.ids = append(a.ids, ps[i].ID)
	}
	a.loc.Rebuild(a.ids)
	return a.loadPage(0, a.pages())
}

// pages returns the number of pages the loaded set takes: one while it
// fits the chips' combined memory (the empty set included), else
// ⌈n/(TotalChips·MemCapacity)⌉.
func (a *Array) pages() int {
	fleet := len(a.chips) * a.cfg.Chip.MemCapacity
	return max(1, (len(a.jhost)+fleet-1)/fleet)
}

// chunk returns the jhost range [lo, hi) chip c holds while page p of np
// is loaded. Page p covers [⌊p·n/np⌋, ⌊(p+1)·n/np⌋) and each chip takes a
// balanced contiguous chunk of it, so chunk sizes differ by at most one
// across the whole set and none exceeds MemCapacity.
func (a *Array) chunk(p, np, c int) (lo, hi int) {
	nc, n := len(a.chips), len(a.jhost)
	lo = p * n / np
	m := (p+1)*n/np - lo
	return lo + c*m/nc, lo + (c+1)*m/nc
}

// loadPage replaces every chip's memory image with its chunk of page p.
func (a *Array) loadPage(p, np int) error {
	for c, ch := range a.chips {
		lo, hi := a.chunk(p, np, c)
		if err := ch.LoadJ(a.jhost[lo:hi]); err != nil {
			return fmt.Errorf("board: page %d chip %d: %w", p, c, err)
		}
	}
	return nil
}

// UpdateJ rewrites the memory image of an already-loaded particle in the
// host copy. On a one-page set it also writes the owning chip's slot,
// which marks that chip's prediction cache stale (chip.WriteJ): the next
// force pass re-predicts the chip's slots span by span, as it does at
// every new block time. A multi-page set streams the new state with the
// next force pass.
func (a *Array) UpdateJ(p chip.JParticle) error {
	pos, ok := a.loc.Slot(p.ID)
	if !ok {
		return fmt.Errorf("board: particle %d not loaded", p.ID)
	}
	a.jhost[pos] = p
	if a.pages() > 1 {
		return nil
	}
	// The chip c with ⌊c·n/nc⌋ ≤ pos < ⌊(c+1)·n/nc⌋.
	c := ((pos+1)*len(a.chips) - 1) / len(a.jhost)
	lo, _ := a.chunk(0, 1, c)
	return a.chips[c].WriteJ(pos-lo, p)
}

// forceCall is the shared state of one force pass. stale records, per
// chip, whether its prediction cache missed t when the pass began: the
// chip is marked predicted at t before dispatch, and each of its spans
// predicts its own slots before forcing them.
type forceCall struct {
	t     float64
	is    []chip.IParticle
	eps   float64
	chips []*chip.Chip
	stale []bool
	units []span
	next  int64 // atomic span-claim cursor
	wg    sync.WaitGroup
}

// forceWorker holds the reusable result slabs of one pool goroutine,
// parked on the jobs channel between calls. Within a pass it pre-merges
// the partials of every span it claims (exact integer adds, so the
// pre-merge is bit-identical to any other merge order — the Section 3.4
// property) and leaves the merged slab for the caller to reduce.
type forceWorker struct {
	jobs    chan *forceCall
	merged  []chip.Partial // this worker's pre-merged partials, one per i
	scratch []chip.Partial // per-span result buffer
	claimed int            // spans claimed in the last pass
}

func (w *forceWorker) run() {
	for c := range w.jobs {
		w.doForce(c)
		c.wg.Done()
	}
}

// doForce claims spans until none is left. It must stay allocation-free
// in steady state: the merged/scratch slabs only grow, and everything
// else is span claiming, prediction and exact merges.
//
//grape:noalloc
func (w *forceWorker) doForce(c *forceCall) {
	n := len(c.is)
	w.merged = growPartials(w.merged, n)
	w.scratch = growPartials(w.scratch, n)
	w.claimed = 0
	for {
		u := int(atomic.AddInt64(&c.next, 1)) - 1
		if u >= len(c.units) {
			return
		}
		s := c.units[u]
		ch := c.chips[s.chip]
		if c.stale[s.chip] {
			// No other span reads these slots, so predicting them here
			// races with nothing; the chip is already marked at c.t, so
			// the range call below does not predict again.
			ch.PredictRange(c.t, s.lo, s.hi)
		}
		dst := w.merged[:n]
		if w.claimed > 0 {
			dst = w.scratch[:n]
		}
		ch.ForceBatchRangeInto(dst, c.t, c.is, c.eps, s.lo, s.hi)
		if w.claimed > 0 {
			for i := 0; i < n; i++ {
				w.merged[i].Merge(&w.scratch[i])
			}
		}
		w.claimed++
	}
}

// growPartials returns s with length ≥ n, reallocating only on growth.
func growPartials(s []chip.Partial, n int) []chip.Partial {
	if cap(s) < n {
		//grapelint:ignore noalloc grow-only slab: reallocates only when the batch outgrows the high-water mark, never in steady state (alloc_test.go locks 0 allocs/op)
		return make([]chip.Partial, n)
	}
	return s[:n]
}

// pool returns the persistent workers, spawning them on first use: one
// per GOMAXPROCS, independent of the chip count, since work is striped by
// (chip, j-range) spans rather than whole chips. The steady-state path
// is a single lock-free atomic load; the mutex only serializes the
// first spawn (and respawn after Close) against concurrent Closes.
//
//grape:hotpath
func (a *Array) pool() []*forceWorker {
	if ws := a.workers.Load(); ws != nil {
		return *ws
	}
	//grapelint:ignore hotblock spawn-once slow path: taken on the first evaluation after New or Close; every later call returns on the atomic load above
	a.mu.Lock()
	defer a.mu.Unlock()
	if ws := a.workers.Load(); ws != nil {
		return *ws
	}
	ws := make([]*forceWorker, runtime.GOMAXPROCS(0))
	for wi := range ws {
		w := &forceWorker{jobs: make(chan *forceCall)}
		ws[wi] = w
		go w.run()
	}
	a.workers.Store(&ws)
	return ws
}

// Close shuts down the worker pool. It is safe to call multiple times and
// on an Array whose pool never started; the Array remains usable (a later
// Forces call lazily respawns the pool).
func (a *Array) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ws := a.workers.Load(); ws != nil {
		for _, w := range *ws {
			close(w.jobs)
		}
		a.workers.Store(nil)
	}
}

// BeginPredict is a no-op: the force pass predicts each span's j-slots
// just before forcing them, so there is nothing to start ahead of it. It
// stays for callers of the host/GRAPE-overlap hint (gbackend.Array).
func (a *Array) BeginPredict(float64) {}

// ForcesInto is the allocation-free force path: the merged results are
// written into the caller-owned slab dst (len(dst) must be ≥ len(is)).
// Steady-state callers reuse the slab, so a force evaluation allocates
// nothing on either the caller's or the workers' side.
//
// The evaluation is one loop over pages; it reloads the chips only when
// the set is more than one page. Per-page partials merge into dst by
// exact integer accumulator adds, so the page count cannot move a result
// bit, and the reduction-tree latency is paid once, as the hardware would.
//
// Cycle model: all chips run in lockstep on the same i-set, so a page's
// force time is the maximum chip time (the chips' chunks differ by at
// most one particle); the reduction trees add one pipeline stage per
// level: ceil(log2 chips/module) within the module, ceil(log2 modules) on
// the board, and ceil(log2 boards) on the network board. The cycle count
// is computed analytically from the workload shape
// (chip.Config.BatchCycles), so it is independent of how the emulation
// stripes the work across host cores.
//
//grape:hotpath
func (a *Array) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	if len(dst) < len(is) {
		panic(fmt.Sprintf("board: partial slab of %d for %d i-particles", len(dst), len(is)))
	}
	n := len(is)
	np := a.pages()
	var cycles int64
	for p := 0; p < np; p++ {
		if np > 1 {
			if err := a.loadPage(p, np); err != nil {
				panic(err)
			}
		}
		d := dst[:n]
		if p > 0 {
			a.pageScratch = growPartials(a.pageScratch, n)
			d = a.pageScratch[:n]
		}
		cycles += a.forcePage(d, t, is, eps)
		if p > 0 {
			for i := 0; i < n; i++ {
				dst[i].Merge(&a.pageScratch[i])
			}
		}
	}
	return cycles + a.reductionCycles()
}

// forcePage evaluates the batch against the page the chips hold and
// returns the lockstep chip cycles without the reduction-tree latency.
//
//grape:hotpath
func (a *Array) forcePage(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	n := len(is)
	fc := &a.fc
	fc.t, fc.is, fc.eps, fc.chips = t, is, eps, a.chips
	fc.stale = fc.stale[:0]
	m := 0
	for _, ch := range a.chips {
		fc.stale = append(fc.stale, !ch.PredictedAt(t))
		ch.MarkPredicted(t)
		m += ch.NJ()
	}

	l := stripeLen(m)
	fc.units = fc.units[:0]
	for ci, ch := range a.chips {
		fc.units = appendSpans(fc.units, ci, ch.NJ(), l)
	}
	fc.next = 0
	workers := a.pool()
	fc.wg.Add(len(workers))
	for _, w := range workers {
		//grapelint:ignore hotblock one parking handoff per worker per evaluation
		w.jobs <- fc
	}
	//grapelint:ignore hotblock the single join per evaluation: the caller must not touch dst or the slabs while workers run
	fc.wg.Wait()
	fc.is = nil // do not retain the caller's batch across calls

	// Reduction: exact merges, span distribution and order irrelevant by
	// construction. Workers that claimed no span contribute nothing.
	first := true
	for _, w := range workers {
		if w.claimed == 0 {
			continue
		}
		if first {
			copy(dst[:n], w.merged[:n])
			first = false
			continue
		}
		for i := 0; i < n; i++ {
			dst[i].Merge(&w.merged[i])
		}
	}
	if first {
		// Empty j-memory: initialise the slab exactly as a chip would.
		f := a.cfg.Chip.Format
		for i := 0; i < n; i++ {
			dst[i].Init(f, is[i].ExpAcc, is[i].ExpJerk, is[i].ExpPot)
		}
	}

	var maxCycles int64
	for _, ch := range a.chips {
		if cy := a.cfg.Chip.BatchCycles(n, ch.NJ()); cy > maxCycles {
			maxCycles = cy
		}
	}
	return maxCycles
}

// reductionCycles returns the pipeline latency of the three-level
// reduction tree.
func (a *Array) reductionCycles() int64 {
	stages := log2ceil(a.cfg.ChipsPerModule) + log2ceil(a.cfg.ModulesPerBoard) + log2ceil(a.cfg.Boards)
	return int64(stages) * int64(a.cfg.ReduceCyclesPerStage)
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// TimeFor converts a cycle count to seconds of hardware time.
func (a *Array) TimeFor(cycles int64) float64 {
	return float64(cycles) / a.cfg.Chip.ClockHz
}
