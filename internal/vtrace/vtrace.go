// Package vtrace is the virtual-time accounting layer of the multi-node
// co-simulation: per-rank phase spans and network counters recorded while
// the parallel drivers (internal/parallel) run on the DES kernel
// (internal/des) over the simulated network (internal/simnet).
//
// The paper's tuning methodology (Section 4.4, Figures 15-19) is exactly
// this decomposition — time per block step split into host, GRAPE,
// communication and synchronization components, re-measured after every
// NIC change. A Recorder reproduces it at the event level: each simulated
// rank's virtual timeline is tiled by attributed spans (Predict, Grape,
// HostWork, CommSend, CommWait, Sync) with the gaps accounted as Idle, so
// that for every rank
//
//	sum over phases of span time + idle == engine end time, exactly.
//
// Check enforces that invariant; Breakdown aggregates the totals for
// comparison against the analytic model (internal/timing); WriteTrace
// exports the spans as Chrome trace-event JSON (one pid per rank, virtual
// microseconds) loadable in chrome://tracing or Perfetto.
//
// The package has no dependencies. It plugs into des and simnet through
// structural interfaces: Recorder implements des.SpanObserver and Set
// implements simnet.Observer without importing either. All record methods
// are nil-receiver safe, so an unattached (nil) recorder costs one branch
// per event — the zero-overhead fast path of the production drivers.
package vtrace

import (
	"fmt"
	"math"
)

// Phase labels one attributed slice of a rank's virtual timeline.
type Phase uint8

// The phase set mirrors the paper's block-step decomposition, refined for
// the event level: CommSend is time the host spends feeding its GRAPE
// link (the paper's "communication" component), CommWait is time blocked
// on the host network waiting for data, Sync is time blocked in the
// block-time agreement barrier, Idle is unattributed virtual time.
const (
	Predict  Phase = iota // predictor pipeline work
	Grape                 // force pipelines busy
	HostWork              // frontend integration (corrector, bookkeeping)
	CommSend              // host<->GRAPE DMA and transfer
	CommWait              // blocked receiving host-network data
	Sync                  // blocked in the block-time barrier
	Idle                  // unattributed gaps
	NumPhases
)

var phaseNames = [NumPhases]string{
	"predict", "grape", "host", "comm-send", "comm-wait", "sync", "idle",
}

// String returns the phase's short name.
func (ph Phase) String() string {
	if ph >= NumPhases {
		return fmt.Sprintf("phase(%d)", uint8(ph))
	}
	return phaseNames[ph]
}

// Span is one attributed interval of virtual time.
type Span struct {
	Phase      Phase
	Start, End float64
}

// spanChunk is one fixed-size block of a recorder's span chain. Spans are
// appended into chunks instead of a growing slice so that recording never
// copies earlier spans and a full-machine run (hundreds of ranks, millions
// of spans) costs one arena allocation per ~128 spans instead of repeated
// slice doublings.
const spanChunkLen = 128

type spanChunk struct {
	next *spanChunk
	n    int
	sp   [spanChunkLen]Span
}

// spanArena hands out chunks carved from slab allocations of 32 chunks,
// so chunk allocation itself amortizes to 1/32 of an allocation. A Set
// shares one arena across all of its rank recorders.
type spanArena struct {
	slab []spanChunk
}

func (a *spanArena) alloc() *spanChunk {
	if len(a.slab) == 0 {
		//grapelint:ignore noalloc amortized arena slab: one allocation per 32 chunks, 1/32 of an alloc per chunk handed out
		a.slab = make([]spanChunk, 32)
	}
	c := &a.slab[0]
	a.slab = a.slab[1:]
	return c
}

// Recorder accumulates one rank's phase spans. The zero value is not
// ready for use; call NewRecorder. A nil *Recorder is a valid no-op
// target for every method — the fast path when tracing is off.
type Recorder struct {
	rank   int
	cursor float64 // virtual time up to which the timeline is tiled
	wait   Phase   // attribution for blocked-receive time
	totals [NumPhases]float64

	// Span storage: an arena-backed chunk chain (see spanChunk).
	arena      *spanArena
	head, tail *spanChunk
	nspans     int

	closed bool
	end    float64
	slack  float64 // idle adjustment applied by Close (FP reconciliation)

	// First recorded violation (overlapping or backwards span); kept as
	// plain fields so recording stays allocation-free.
	bad       bool
	badPhase  Phase
	badFrom   float64
	badTo     float64
	badCursor float64
}

// NewRecorder returns an empty recorder for the given rank. Blocked
// receives are attributed to CommWait until SetWait changes the phase.
func NewRecorder(rank int) *Recorder {
	return &Recorder{rank: rank, wait: CommWait, arena: &spanArena{}}
}

// appendSpan appends to the chunk chain, taking a fresh arena chunk when
// the tail fills.
//
//grape:noalloc
func (r *Recorder) appendSpan(s Span) {
	t := r.tail
	if t == nil || t.n == spanChunkLen {
		c := r.arena.alloc()
		if t == nil {
			r.head = c
		} else {
			t.next = c
		}
		r.tail = c
		t = c
	}
	t.sp[t.n] = s
	t.n++
	r.nspans++
}

// Rank returns the rank this recorder accounts for.
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Add records one attributed span [from, to]. Spans must be appended in
// non-decreasing time order (the DES discipline guarantees this for a
// single simulated process); the gap since the previous span is
// accounted as Idle. Zero-length spans are dropped. Out-of-order or
// backwards spans are not recorded — they flag the recorder so Check
// fails with the offending span.
//
//grape:noalloc
func (r *Recorder) Add(ph Phase, from, to float64) {
	if r == nil || from == to {
		return
	}
	if ph >= Idle || to < from || from < r.cursor || r.closed {
		if !r.bad {
			r.bad = true
			r.badPhase, r.badFrom, r.badTo, r.badCursor = ph, from, to, r.cursor
		}
		return
	}
	if from > r.cursor {
		r.totals[Idle] += from - r.cursor
		r.appendSpan(Span{Phase: Idle, Start: r.cursor, End: from})
	}
	r.totals[ph] += to - from
	r.appendSpan(Span{Phase: ph, Start: from, End: to})
	r.cursor = to
}

// Span implements des.SpanObserver: SleepAs tags map one-to-one onto
// Phase values.
//
//grape:noalloc
func (r *Recorder) Span(tag int, from, to float64) {
	if r == nil {
		return
	}
	if tag < 0 || tag >= int(Idle) {
		if !r.bad {
			r.bad = true
			r.badPhase, r.badFrom, r.badTo, r.badCursor = NumPhases, from, to, r.cursor
		}
		return
	}
	r.Add(Phase(tag), from, to)
}

// SetWait sets the phase that blocked-receive time is attributed to and
// returns the previous one — drivers bracket barrier sections with
// SetWait(Sync)/restore so the same simnet hook feeds both Sync and
// CommWait. On a nil recorder it returns CommWait.
func (r *Recorder) SetWait(ph Phase) Phase {
	if r == nil {
		return CommWait
	}
	old := r.wait
	r.wait = ph
	return old
}

// Close tiles the trailing gap as Idle up to the engine end time and
// reconciles the per-phase totals so their fixed-order sum equals end
// EXACTLY — accumulating many span differences drifts by ulps, and the
// breakdown's contract is that the per-rank sum is the virtual end time,
// not almost. The adjustment is folded into Idle and exposed to Check,
// which bounds it at ~1e-9 relative.
func (r *Recorder) Close(end float64) {
	if r == nil || r.closed {
		return
	}
	if end < r.cursor {
		if !r.bad {
			r.bad = true
			r.badPhase, r.badFrom, r.badTo, r.badCursor = Idle, end, end, r.cursor
		}
		end = r.cursor
	}
	if end > r.cursor {
		r.totals[Idle] += end - r.cursor
		r.appendSpan(Span{Phase: Idle, Start: r.cursor, End: end})
		r.cursor = end
	}
	gap := r.totals[Idle]
	for i := 0; i < 4; i++ {
		s := r.sum()
		if s == end {
			break
		}
		r.totals[Idle] += end - s
	}
	r.slack = r.totals[Idle] - gap
	r.end = end
	r.closed = true
}

// sum is the fixed-order phase total — the same order every consumer of
// Totals uses, so "sum equals end" is a meaningful exact comparison.
func (r *Recorder) sum() float64 {
	var s float64
	for _, v := range r.totals {
		s += v
	}
	return s
}

// Total returns the accumulated time of one phase.
func (r *Recorder) Total(ph Phase) float64 {
	if r == nil || ph >= NumPhases {
		return 0
	}
	return r.totals[ph]
}

// Totals returns the per-phase totals.
func (r *Recorder) Totals() PhaseTotals {
	if r == nil {
		return PhaseTotals{}
	}
	return r.totals
}

// Spans materializes the recorded spans (including Idle fill) into a
// fresh slice owned by the caller. Recording keeps spans in chunked arena
// storage; this is the cold-path flat view for export and tests. A
// recorder with no spans returns nil.
func (r *Recorder) Spans() []Span {
	if r == nil || r.nspans == 0 {
		return nil
	}
	out := make([]Span, 0, r.nspans)
	for c := r.head; c != nil; c = c.next {
		out = append(out, c.sp[:c.n]...)
	}
	return out
}

// End returns the engine end time passed to Close.
func (r *Recorder) End() float64 {
	if r == nil {
		return 0
	}
	return r.end
}

// Check verifies the tiling invariant after Close: the span chain covers
// [0, end] contiguously with exact boundary equality, the fixed-order
// phase sum equals end exactly, no out-of-order span was ever recorded,
// and the floating-point reconciliation Close applied is negligible. A
// nil recorder trivially passes.
func (r *Recorder) Check(end float64) error {
	if r == nil {
		return nil
	}
	if r.bad {
		if r.badPhase == NumPhases {
			return fmt.Errorf("vtrace: rank %d recorded span with invalid tag at [%g,%g]", r.rank, r.badFrom, r.badTo)
		}
		return fmt.Errorf("vtrace: rank %d span %v [%g,%g] violates ordering (cursor %g)",
			r.rank, r.badPhase, r.badFrom, r.badTo, r.badCursor)
	}
	if !r.closed {
		return fmt.Errorf("vtrace: rank %d not closed", r.rank)
	}
	if r.end != end {
		return fmt.Errorf("vtrace: rank %d closed at %g, engine ended at %g", r.rank, r.end, end)
	}
	prev := 0.0
	i := 0
	for c := r.head; c != nil; c = c.next {
		for _, sp := range c.sp[:c.n] {
			if sp.Start != prev || sp.End < sp.Start {
				return fmt.Errorf("vtrace: rank %d span %d (%v [%g,%g]) does not tile (expected start %g)",
					r.rank, i, sp.Phase, sp.Start, sp.End, prev)
			}
			prev = sp.End
			i++
		}
	}
	if prev != end {
		return fmt.Errorf("vtrace: rank %d spans end at %g, engine at %g", r.rank, prev, end)
	}
	if s := r.sum(); s != end {
		return fmt.Errorf("vtrace: rank %d phase sum %g != end %g", r.rank, s, end)
	}
	if tol := 1e-9 * (1 + math.Abs(end)); math.Abs(r.slack) > tol {
		return fmt.Errorf("vtrace: rank %d idle reconciliation %g exceeds tolerance %g", r.rank, r.slack, tol)
	}
	return nil
}

// PhaseTotals is a per-phase time vector.
type PhaseTotals [NumPhases]float64

// Sum returns the fixed-order total — equal to the engine end time for a
// closed, checked recorder.
func (t PhaseTotals) Sum() float64 {
	var s float64
	for _, v := range t {
		s += v
	}
	return s
}

// The four model-component accessors map the event-level phases onto the
// analytic decomposition (timing.Report / perfmodel.BlockCost): Host is
// frontend work, Grape the force pipelines, Comm the host↔GRAPE link, and
// Sync everything spent blocked on the host network — the barrier proper
// plus data-exchange waits, which the analytic model folds into its
// network terms.
func (t PhaseTotals) Host() float64  { return t[HostWork] }
func (t PhaseTotals) Grape() float64 { return t[Grape] }
func (t PhaseTotals) Comm() float64  { return t[CommSend] }
func (t PhaseTotals) Sync() float64  { return t[Sync] + t[CommWait] }

// Set is one co-simulation's complete accounting: a recorder per rank
// plus the network traffic matrices. A nil *Set is a valid no-op target
// for every method.
type Set struct {
	recs  []*Recorder
	msgs  []int64   // n×n message counts, from*n+to
	bytes []int64   // n×n byte counts, from*n+to
	queue []float64 // per-sender NIC serialization queueing delay
	end   float64
}

// NewSet builds recorders and matrices for n ranks.
func NewSet(n int) *Set {
	if n <= 0 {
		panic(fmt.Sprintf("vtrace: non-positive rank count %d", n))
	}
	s := &Set{
		recs:  make([]*Recorder, n),
		msgs:  make([]int64, n*n),
		bytes: make([]int64, n*n),
		queue: make([]float64, n),
	}
	// One shared arena: rank recorders fill at similar rates, so shared
	// slabs cut the allocation count another 32× across the set.
	ar := &spanArena{}
	for i := range s.recs {
		s.recs[i] = &Recorder{rank: i, wait: CommWait, arena: ar}
	}
	return s
}

// Ranks returns the rank count (0 for a nil set).
func (s *Set) Ranks() int {
	if s == nil {
		return 0
	}
	return len(s.recs)
}

// Recorder returns rank's recorder, or nil on a nil set — callers can
// thread the result straight into the nil-tolerant record calls.
func (s *Set) Recorder(rank int) *Recorder {
	if s == nil {
		return nil
	}
	return s.recs[rank]
}

// MessageSent implements simnet.Observer: it accumulates the
// per-(from,to) traffic matrices and the sender's NIC queueing delay
// (time the transfer waited behind earlier serializations).
//
//grape:noalloc
func (s *Set) MessageSent(from, to, tag, bytes int, queued float64) {
	if s == nil {
		return
	}
	n := len(s.recs)
	s.msgs[from*n+to]++
	s.bytes[from*n+to] += int64(bytes)
	s.queue[from] += queued
}

// RecvBlocked implements simnet.Observer: blocked-receive time lands on
// the receiving rank's recorder under its current wait phase.
//
//grape:noalloc
func (s *Set) RecvBlocked(to, tag int, from, until float64) {
	if s == nil {
		return
	}
	r := s.recs[to]
	r.Add(r.wait, from, until)
}

// Messages returns the message count from → to.
func (s *Set) Messages(from, to int) int64 {
	if s == nil {
		return 0
	}
	return s.msgs[from*len(s.recs)+to]
}

// Bytes returns the byte count from → to.
func (s *Set) Bytes(from, to int) int64 {
	if s == nil {
		return 0
	}
	return s.bytes[from*len(s.recs)+to]
}

// QueueDelay returns the total NIC serialization queueing delay of
// rank's outgoing transfers.
func (s *Set) QueueDelay(rank int) float64 {
	if s == nil {
		return 0
	}
	return s.queue[rank]
}

// Close closes every recorder at the engine end time.
func (s *Set) Close(end float64) {
	if s == nil {
		return
	}
	s.end = end
	for _, r := range s.recs {
		r.Close(end)
	}
}

// Check verifies the tiling invariant on every rank.
func (s *Set) Check(end float64) error {
	if s == nil {
		return nil
	}
	for _, r := range s.recs {
		if err := r.Check(end); err != nil {
			return err
		}
	}
	return nil
}

// Breakdown snapshots the per-rank phase totals after Close.
func (s *Set) Breakdown() *Breakdown {
	if s == nil {
		return nil
	}
	b := &Breakdown{End: s.end, Ranks: make([]PhaseTotals, len(s.recs))}
	for i, r := range s.recs {
		b.Ranks[i] = r.Totals()
	}
	return b
}

// Breakdown is the per-rank and aggregated phase accounting of one run.
type Breakdown struct {
	End   float64 // engine end time == Result.VirtualTime
	Ranks []PhaseTotals
}

// Mean returns the per-rank mean of each phase — the machine-level view
// comparable with the analytic timing.Report components (which model the
// per-host critical path, not the rank sum).
func (b *Breakdown) Mean() PhaseTotals {
	var m PhaseTotals
	if b == nil || len(b.Ranks) == 0 {
		return m
	}
	for _, r := range b.Ranks {
		for ph, v := range r {
			m[ph] += v
		}
	}
	inv := 1 / float64(len(b.Ranks))
	for ph := range m {
		m[ph] *= inv
	}
	return m
}

// Table renders the per-rank breakdown plus the per-rank mean, one row
// per rank with the exact per-rank total in the last column.
func (b *Breakdown) Table() string {
	if b == nil {
		return ""
	}
	out := fmt.Sprintf("%-6s %12s %12s %12s %12s %12s %12s %12s %14s\n",
		"rank", "predict", "grape", "host", "comm-send", "comm-wait", "sync", "idle", "total")
	row := func(label string, t PhaseTotals) string {
		return fmt.Sprintf("%-6s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %14.8g\n",
			label, t[Predict], t[Grape], t[HostWork], t[CommSend], t[CommWait], t[Sync], t[Idle], t.Sum())
	}
	for i, t := range b.Ranks {
		out += row(fmt.Sprintf("%d", i), t)
	}
	out += row("mean", b.Mean())
	return out
}
