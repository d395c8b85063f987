package nbody

import (
	"fmt"
	"math"
	"slices"
)

// BlockSched is a bucketed power-of-two block-timestep scheduler.
//
// The Hermite scheme constrains every individual timestep to a power of
// two and every particle time to a multiple of its step ("block steps",
// Makino & Aarseth 1992). That makes the step exponent a natural bucket
// key: all particles sharing step 2^e also share their next due time,
// because due = Time + 2^e is the unique multiple of 2^e in the window
// (t_cur, t_cur + 2^e]. A bin therefore carries a single due time, and
// picking the next block is a min over ~30 occupied bins instead of the
// O(N) scan System.MinTime performs — per block step the scheduler does
// O(active block) work plus O(bins), and re-binning a corrected particle
// is O(1).
//
// Correctness does not lean on the shared-due invariant: AppendBlock
// re-checks the exact due-time equality per member and recomputes the
// residual bin due, so a bin whose members have drifted apart (e.g. a
// system initialised at non-commensurate times) still schedules
// correctly, merely degrading that bin to O(members).
type BlockSched struct {
	base int        // step exponent of bins[0]
	bins []schedBin // bins[e-base] holds the particles with step 2^e

	occupied int // number of non-empty bins

	binOf []int16 // particle -> step exponent, schedNone when absent
	pos   []int32 // particle -> index in its bin's members slice
}

type schedBin struct {
	members []int32
	due     float64 // min over members of Time+Step; +Inf when empty
}

// schedNone marks a particle not currently held by any bin.
const schedNone = int16(math.MinInt16)

// NewBlockSched builds a scheduler over the system's current Time/Step
// arrays. Every particle must already carry a positive power-of-two step
// (integrators assign startup steps before constructing the scheduler).
func NewBlockSched(sys *System) *BlockSched {
	s := &BlockSched{}
	s.Rebuild(sys)
	return s
}

// Rebuild discards all bin state and re-inserts every particle, an O(N)
// reset for wholesale Time/Step rewrites (snapshot restore, tests).
func (s *BlockSched) Rebuild(sys *System) {
	if cap(s.binOf) < sys.N {
		s.binOf = make([]int16, sys.N)
		s.pos = make([]int32, sys.N)
	}
	s.binOf = s.binOf[:sys.N]
	s.pos = s.pos[:sys.N]
	for e := range s.bins {
		s.bins[e].members = s.bins[e].members[:0]
		s.bins[e].due = math.Inf(1)
	}
	s.occupied = 0
	for i := range s.binOf {
		s.binOf[i] = schedNone
	}
	for i := 0; i < sys.N; i++ {
		s.insert(sys, i)
	}
}

// stepExp returns e for step = 2^e, panicking on anything the block
// scheme cannot represent (zero, negative, non-power-of-two, inf, NaN).
func stepExp(step float64) int {
	f, e := math.Frexp(step)
	if f != 0.5 {
		//grapelint:ignore noalloc cold panic path: a malformed timestep is an integrator bug and the run dies here
		panic(fmt.Sprintf("nbody: timestep %v is not a positive power of two", step))
	}
	return e - 1
}

// NextTime returns the earliest due time over all bins — bit-identical
// to System.MinTime, in O(bins) instead of O(N).
//
//grape:noalloc
func (s *BlockSched) NextTime() float64 {
	next := math.Inf(1)
	for e := range s.bins {
		if d := s.bins[e].due; d < next {
			next = d
		}
	}
	return next
}

// AppendBlock appends to dst the particles due exactly at t, in
// ascending index order — the same membership and order the retired
// O(N) scan produced. Bins whose due time fires are swept once;
// members that do not match the exact equality test stay put and the
// bin's residual due is recomputed from them. The caller must follow
// up with Rebin for every returned particle once its Time and Step
// are updated (the fired bins' due times assume those members leave).
//
//grape:noalloc
func (s *BlockSched) AppendBlock(sys *System, t float64, dst []int) []int {
	for e := range s.bins {
		b := &s.bins[e]
		if b.due != t {
			continue
		}
		rest := math.Inf(1)
		for _, m := range b.members {
			i := int(m)
			if d := sys.Time[i] + sys.Step[i]; d == t {
				dst = append(dst, i)
			} else if d < rest {
				rest = d
			}
		}
		b.due = rest
	}
	slices.Sort(dst)
	return dst
}

// Rebin moves particle i to the bin matching its current step and
// folds its new due time in. Call it once per particle returned by the
// last AppendBlock, after the corrector writes Time[i] and Step[i];
// each call is O(1).
//
//grape:noalloc
func (s *BlockSched) Rebin(sys *System, i int) {
	s.remove(i)
	s.insert(sys, i)
}

// Bins returns the number of occupied timestep bins — the block
// hierarchy depth the paper's Figure 9 histograms correspond to.
func (s *BlockSched) Bins() int { return s.occupied }

// EachBin calls f(exp, count) for every occupied bin in increasing
// step-exponent order.
func (s *BlockSched) EachBin(f func(exp, count int)) {
	for e := range s.bins {
		if n := len(s.bins[e].members); n > 0 {
			f(s.base+e, n)
		}
	}
}

//grape:noalloc
func (s *BlockSched) insert(sys *System, i int) {
	e := stepExp(sys.Step[i])
	due := sys.Time[i] + sys.Step[i]
	b := s.binFor(e)
	if len(b.members) == 0 {
		s.occupied++
		b.due = due
	} else if due < b.due {
		b.due = due
	}
	s.pos[i] = int32(len(b.members))
	b.members = append(b.members, int32(i))
	s.binOf[i] = int16(e)
}

//grape:noalloc
func (s *BlockSched) remove(i int) {
	e := int(s.binOf[i])
	if e == int(schedNone) {
		panic("nbody: Rebin of unscheduled particle")
	}
	b := &s.bins[e-s.base]
	last := len(b.members) - 1
	p := s.pos[i]
	m := b.members[last]
	b.members[p] = m
	s.pos[m] = p
	b.members = b.members[:last]
	s.binOf[i] = schedNone
	if last == 0 {
		s.occupied--
		b.due = math.Inf(1)
	}
}

// binFor returns the bin for step exponent e, growing the bin table in
// either direction as needed. Growth doubles, so re-basing stays
// amortized O(1) even as steps shrink over a run.
func (s *BlockSched) binFor(e int) *schedBin {
	if len(s.bins) == 0 {
		s.base = e
		s.bins = append(s.bins, schedBin{due: math.Inf(1)})
	}
	if e < s.base {
		grow := s.base - e
		if grow < len(s.bins) {
			grow = len(s.bins)
		}
		old := len(s.bins)
		//grapelint:ignore noalloc grow-only bin table: extends only when a particle reaches a new smallest power-of-two step, never in steady state
		s.bins = append(s.bins, make([]schedBin, grow)...)
		copy(s.bins[grow:], s.bins[:old])
		for k := 0; k < grow; k++ {
			s.bins[k] = schedBin{due: math.Inf(1)}
		}
		s.base -= grow
	}
	for e >= s.base+len(s.bins) {
		s.bins = append(s.bins, schedBin{due: math.Inf(1)})
	}
	return &s.bins[e-s.base]
}
