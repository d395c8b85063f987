// Package chip emulates the GRAPE-6 processor chip (Section 2.1 of the
// paper): six force-calculation pipelines with 8-way virtual multiple
// pipelining (VMP), an on-chip predictor pipeline, and a local j-particle
// memory with a point-to-point interface.
//
// The emulation is functional and cycle-accounting rather than gate-level:
// it reproduces the chip's arithmetic (fixed-point positions,
// short-mantissa pipeline operations, block-floating-point accumulation)
// so that results carry hardware-faithful rounding and the
// partition-invariance property, and it reports the number of clock cycles
// a batch would take so that the timing layer can reproduce the paper's
// performance curves.
package chip

import (
	"fmt"
	"math"

	"grape6/internal/gfixed"
)

// Config describes one processor chip.
type Config struct {
	ClockHz       float64       // pipeline clock (paper: 90 MHz)
	Pipelines     int           // force pipelines per chip (paper: 6)
	VMP           int           // virtual multiple pipelining degree (paper: 8)
	Format        gfixed.Format // arithmetic word lengths
	MemCapacity   int           // j-particle memory capacity
	PipelineDepth int           // pipeline latency in cycles
}

// Default is the production GRAPE-6 chip configuration.
var Default = Config{
	ClockHz:       90e6,
	Pipelines:     6,
	VMP:           8,
	Format:        gfixed.Grape6,
	MemCapacity:   65536,
	PipelineDepth: 30,
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("chip: non-positive clock %v", c.ClockHz)
	}
	if c.Pipelines <= 0 || c.VMP <= 0 {
		return fmt.Errorf("chip: pipelines=%d vmp=%d must be positive", c.Pipelines, c.VMP)
	}
	if c.MemCapacity <= 0 {
		return fmt.Errorf("chip: memory capacity %d must be positive", c.MemCapacity)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("chip: negative pipeline depth %d", c.PipelineDepth)
	}
	return c.Format.Validate()
}

// IBatch returns the number of i-particles served in parallel by one pass
// of the pipelines: Pipelines × VMP (48 for the production chip).
func (c Config) IBatch() int { return c.Pipelines * c.VMP }

// PeakFlops returns the chip's peak speed under the paper's 57-flops
// convention: 57 × Pipelines × ClockHz (30.78 Gflops for the production
// chip, quoted as 30.8 in the paper).
func (c Config) PeakFlops() float64 {
	return 57 * float64(c.Pipelines) * c.ClockHz
}

// JParticle is a j-particle as stored in chip memory: position in fixed
// point, everything else in the pipeline float format, plus the particle's
// own time for the predictor.
type JParticle struct {
	ID   int // global particle id (reported for nearest neighbours)
	T0   float64
	Mass float64
	X    [3]gfixed.Fixed64
	V    [3]float64
	A    [3]float64
	J    [3]float64
	S    [3]float64 // second force derivative, eq. (6)'s a⁽²⁾ term
}

// IParticle is an i-particle as broadcast to the pipelines: predicted
// position in fixed point, predicted velocity in pipeline floats, and the
// block exponents chosen by the host for the three result groups. SelfID
// is the particle's global id, used by the nearest-neighbour unit to
// exclude the self-pair.
type IParticle struct {
	X       [3]gfixed.Fixed64
	V       [3]float64
	SelfID  int
	ExpAcc  int
	ExpJerk int
	ExpPot  int
}

// Partial is the block-floating-point partial result for one i-particle,
// as produced by one chip and merged exactly by the FPGA reduction trees.
// The accumulators are embedded by value — like the hardware's registers —
// so a []Partial slab is a single flat allocation that callers can reuse
// across force evaluations (see ForceBatchInto).
type Partial struct {
	Acc  [3]gfixed.Accum
	Jerk [3]gfixed.Accum
	Pot  gfixed.Accum
	NN   int     // global id of nearest neighbour seen so far (-1 if none)
	NND2 float64 // softened squared distance to it
}

// Init resets a partial result in place: zeroed accumulators with the
// given block exponents, no nearest neighbour. Reusing a slab of partials
// via Init is the allocation-free path.
//
//grape:noalloc
func (p *Partial) Init(f gfixed.Format, expAcc, expJerk, expPot int) {
	for c := 0; c < 3; c++ {
		p.Acc[c].Init(f, expAcc)
		p.Jerk[c].Init(f, expJerk)
	}
	p.Pot.Init(f, expPot)
	p.NN = -1
	p.NND2 = math.Inf(1)
}

// NewPartial allocates a zeroed partial result with the given exponents.
func NewPartial(f gfixed.Format, expAcc, expJerk, expPot int) *Partial {
	p := new(Partial)
	p.Init(f, expAcc, expJerk, expPot)
	return p
}

// Merge folds another chip's partial result into p (exact integer adds;
// this is the FPGA adder of Section 3.4). Nearest-neighbour candidates are
// compared by distance with ties broken toward the smaller id, which keeps
// the merge deterministic regardless of tree shape.
//
//grape:noalloc
func (p *Partial) Merge(q *Partial) {
	for c := 0; c < 3; c++ {
		p.Acc[c].Merge(&q.Acc[c])
		p.Jerk[c].Merge(&q.Jerk[c])
	}
	p.Pot.Merge(&q.Pot)
	if q.NND2 < p.NND2 || (q.NND2 == p.NND2 && q.NN >= 0 && (p.NN < 0 || q.NN < p.NN)) {
		p.NND2 = q.NND2
		p.NN = q.NN
	}
}

// Overflowed reports whether any accumulator overflowed its block format.
func (p *Partial) Overflowed() bool {
	for c := 0; c < 3; c++ {
		if p.Acc[c].Overflow || p.Jerk[c].Overflow {
			return true
		}
	}
	return p.Pot.Overflow
}

// Chip is one emulated processor chip.
//
// The j-memory is held twice: mem is the canonical array-of-structs
// record store (what LoadJ/WriteJ/the ECC memory image operate on), and
// the structure-of-arrays hot set below is what the force pipelines
// actually stream — contiguous component planes, so the inner loop never
// strides over full JParticle records. mass and id mirror the memory
// contents; px and pv hold the prediction cache, refreshed by Predict.
type Chip struct {
	cfg Config
	mem []JParticle

	// SoA hot set: per-component planes indexed by memory slot.
	mass []float64
	id   []int

	// predicted state, refreshed by Predict
	predT  float64
	predOK bool
	px     [3][]gfixed.Fixed64
	pv     [3][]float64
}

// New returns an empty chip. It panics on invalid configuration, mirroring
// the hardware's "does not exist" failure mode for impossible designs.
func New(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Chip{cfg: cfg}
}

// Config returns the chip's configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// NJ returns the number of stored j-particles.
func (ch *Chip) NJ() int { return len(ch.mem) }

// ID returns the id of the particle stored in memory slot k.
func (ch *Chip) ID(k int) int { return ch.mem[k].ID }

// LoadJ replaces the chip memory contents. It returns an error when the
// particle count exceeds the memory capacity.
func (ch *Chip) LoadJ(ps []JParticle) error {
	if len(ps) > ch.cfg.MemCapacity {
		return fmt.Errorf("chip: %d j-particles exceed memory capacity %d", len(ps), ch.cfg.MemCapacity)
	}
	ch.mem = append(ch.mem[:0], ps...)
	ch.growPlanes()
	for k := range ch.mem {
		ch.mass[k] = ch.mem[k].Mass
		ch.id[k] = ch.mem[k].ID
	}
	ch.predOK = false
	return nil
}

// WriteJ updates one memory slot (the host's j-particle update path after
// a block is corrected). The prediction cache is invalidated: the next
// force pass re-predicts the memory, which it does at every new block
// time anyway.
func (ch *Chip) WriteJ(slot int, p JParticle) error {
	if slot < 0 || slot >= len(ch.mem) {
		return fmt.Errorf("chip: slot %d out of range [0,%d)", slot, len(ch.mem))
	}
	ch.mem[slot] = p
	ch.mass[slot] = p.Mass
	ch.id[slot] = p.ID
	ch.predOK = false
	return nil
}

func (ch *Chip) growPlanes() {
	n := len(ch.mem)
	// Reallocate when the planes are too small, and also when the j-set
	// shrank to under a quarter of the backing arrays — otherwise one
	// large load would pin the largest-ever allocation for the chip's
	// lifetime. The >64 floor keeps tiny test loads from thrashing.
	if cap(ch.mass) < n || (cap(ch.mass) > 4*n && cap(ch.mass) > 64) {
		for c := 0; c < 3; c++ {
			ch.px[c] = make([]gfixed.Fixed64, n)
			ch.pv[c] = make([]float64, n)
		}
		ch.mass = make([]float64, n)
		ch.id = make([]int, n)
	}
	for c := 0; c < 3; c++ {
		ch.px[c] = ch.px[c][:n]
		ch.pv[c] = ch.pv[c][:n]
	}
	ch.mass = ch.mass[:n]
	ch.id = ch.id[:n]
}

// PredictParticle evaluates the predictor polynomials, eqs. (6)-(7), for a
// single stored particle in the pipeline's rounded arithmetic, returning
// the fixed-point position and float velocity at time t. It is exported so
// that the host backend can predict i-particles through the IDENTICAL
// datapath: a particle predicted by the host then compared against its own
// memory image predicted by the chip yields an exactly zero coordinate
// difference, making the self-interaction contribute nothing to the
// acceleration and jerk (and exactly -m/ε to the potential).
func PredictParticle(f gfixed.Format, j *JParticle, t float64) (x [3]gfixed.Fixed64, v [3]float64) {
	return predictParticle(f, f.Rounder(), j, t)
}

// predictParticle is PredictParticle with the mantissa rounder hoisted by
// the caller — the predictor's pipeline stages are all mantissa roundings,
// so batch callers (PredictRange) pay the mask setup once per stripe
// instead of once per operation.
//
// Like forceTile it runs on gfixed's inlined RoundTame behind one guard per
// particle: the raw time difference and the twelve stored coefficients
// must be tame (gfixed.TameExp), else predictExact evaluates the particle.
// With |dt| and every coefficient zero or in [2^-128, 2^128), a Horner
// stage is dt/k times a partial sum plus a coefficient: four nested stages
// reach at most 2^(4·128+128+4) and, by the ulp argument (a sum of two
// floats is zero or at least an ulp of the smaller), at least
// 2^-(4·128+128+166) — normal and finite throughout, inside 2^±806, and so
// inside RoundTame's domain (±0 and the normals below 2^(1023-s),
// s = 53 - MantBits, which at every valid width includes [2^-1022, 2^972)).
//
// The three components are written abreast — six independent Horner chains
// per particle, a stage of all six before the next — and the quotients
// dt/2, dt/3, dt/4 they share are taken once. Every operation, operand and
// order within a component is predictExact's: dt/4*s there is (dt/4)·s
// here, and s*dt/3 is (s·dt)/3, which keeps its own division.
//
//grape:noalloc
func predictParticle(f gfixed.Format, r gfixed.Rounder, j *JParticle, t float64) (x [3]gfixed.Fixed64, v [3]float64) {
	dt := t - j.T0
	wild := gfixed.Untame(dt)
	for c := 0; c < 3; c++ {
		wild |= gfixed.Untame(j.V[c]) | gfixed.Untame(j.A[c]) | gfixed.Untame(j.J[c]) | gfixed.Untame(j.S[c])
	}
	if wild != 0 {
		return predictExact(f, r, j, t)
	}
	dt = r.RoundTame(dt)
	if dt == 0 {
		// A particle updated at exactly time t predicts to its stored
		// state: every polynomial term carries a factor dt. The stored
		// velocity is re-rounded for callers that bypassed MakeJParticle
		// (rounding is idempotent, so this matches the polynomial path).
		for c := 0; c < 3; c++ {
			v[c] = r.RoundTame(j.V[c])
		}
		return j.X, v
	}
	dt2, dt3, dt4 := dt/2, dt/3, dt/4
	v0, v1, v2 := j.V[0], j.V[1], j.V[2]
	a0, a1, a2 := j.A[0], j.A[1], j.A[2]
	j0, j1, j2 := j.J[0], j.J[1], j.J[2]
	s0, s1, s2 := j.S[0], j.S[1], j.S[2]

	// Horner evaluation of the displacement polynomial
	// dt·(v + dt/2·(a + dt/3·(j + dt/4·s))), rounded per stage, beside the
	// velocity predictor, eq. (7) truncated at snap.
	p0 := r.RoundTame(j0 + r.RoundTame(dt4*s0))
	p1 := r.RoundTame(j1 + r.RoundTame(dt4*s1))
	p2 := r.RoundTame(j2 + r.RoundTame(dt4*s2))
	q0 := r.RoundTame(s0*dt/3 + j0)
	q1 := r.RoundTame(s1*dt/3 + j1)
	q2 := r.RoundTame(s2*dt/3 + j2)

	p0 = r.RoundTame(a0 + r.RoundTame(dt3*p0))
	p1 = r.RoundTame(a1 + r.RoundTame(dt3*p1))
	p2 = r.RoundTame(a2 + r.RoundTame(dt3*p2))
	q0 = r.RoundTame(a0 + r.RoundTame(dt2*q0))
	q1 = r.RoundTame(a1 + r.RoundTame(dt2*q1))
	q2 = r.RoundTame(a2 + r.RoundTame(dt2*q2))

	p0 = r.RoundTame(v0 + r.RoundTame(dt2*p0))
	p1 = r.RoundTame(v1 + r.RoundTame(dt2*p1))
	p2 = r.RoundTame(v2 + r.RoundTame(dt2*p2))
	v[0] = r.RoundTame(v0 + r.RoundTame(dt*q0))
	v[1] = r.RoundTame(v1 + r.RoundTame(dt*q1))
	v[2] = r.RoundTame(v2 + r.RoundTame(dt*q2))

	x[0] = j.X[0] + displace(f, r.RoundTame(dt*p0))
	x[1] = j.X[1] + displace(f, r.RoundTame(dt*p1))
	x[2] = j.X[2] + displace(f, r.RoundTame(dt*p2))
	return x, v
}

// predictExact is the predictor pipeline on gfixed's exact Round, defined
// for every float64: the specification predictParticle restricts.
//
//grape:noalloc
func predictExact(f gfixed.Format, r gfixed.Rounder, j *JParticle, t float64) (x [3]gfixed.Fixed64, v [3]float64) {
	dt := r.Round(t - j.T0)
	if dt == 0 {
		for c := 0; c < 3; c++ {
			v[c] = r.Round(j.V[c])
		}
		return j.X, v
	}
	for c := 0; c < 3; c++ {
		poly := r.Round(j.J[c] + r.Round(dt/4*j.S[c]))
		poly = r.Round(j.A[c] + r.Round(dt/3*poly))
		poly = r.Round(j.V[c] + r.Round(dt/2*poly))
		x[c] = j.X[c] + displace(f, r.Round(dt*poly))

		vp := r.Round(j.S[c]*dt/3 + j.J[c])
		vp = r.Round(j.A[c] + r.Round(dt/2*vp))
		v[c] = r.Round(j.V[c] + r.Round(dt*vp))
	}
	return x, v
}

// displace converts a predicted displacement to fixed point. An
// out-of-range one clamps to the format's edge; the force result will be
// garbage for this pair, as on the real chip when a particle escapes the
// coordinate range.
//
//grape:noalloc
func displace(f gfixed.Format, disp float64) gfixed.Fixed64 {
	dq, err := f.ToFixed(disp)
	if err != nil {
		if disp > 0 {
			return Fixed64Max
		}
		return -Fixed64Max
	}
	return dq
}

// PredictRange runs the predictor pipeline over the memory slots [lo, hi)
// at time t, writing the predictions into the chip's cache WITHOUT
// validating it. It is the striping primitive of the board's force pass:
// the board marks a stale chip predicted first (MarkPredicted), and each
// span then predicts its own slots before ForceBatchRangeInto reads them.
// Concurrent calls on disjoint ranges are race-free (each touches only its
// own cache slots), and results are bit-identical to a serial Predict(t)
// because each slot's prediction depends only on (particle, t).
// Out-of-range bounds are clamped.
//
//grape:noalloc
func (ch *Chip) PredictRange(t float64, lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(ch.mem) {
		hi = len(ch.mem)
	}
	f := ch.cfg.Format
	r := f.Rounder()
	px0, px1, px2 := ch.px[0], ch.px[1], ch.px[2]
	pv0, pv1, pv2 := ch.pv[0], ch.pv[1], ch.pv[2]
	for k := lo; k < hi; k++ {
		x, v := predictParticle(f, r, &ch.mem[k], t)
		px0[k], px1[k], px2[k] = x[0], x[1], x[2]
		pv0[k], pv1[k], pv2[k] = v[0], v[1], v[2]
	}
}

// MarkPredicted declares the prediction cache valid for time t. Every
// stored slot must be predicted at t by PredictRange before anything reads
// it: the board marks a stale chip before its force pass, and each span of
// that pass predicts its own slots before forcing them.
func (ch *Chip) MarkPredicted(t float64) {
	ch.predT = t
	ch.predOK = true
}

// PredictedAt reports whether the prediction cache currently holds every
// stored particle predicted to time t.
func (ch *Chip) PredictedAt(t float64) bool {
	return ch.predOK && ch.predT == t
}

// Predict runs the predictor pipeline: every stored j-particle is advanced
// to time t via PredictParticle and cached for the force pipelines.
func (ch *Chip) Predict(t float64) {
	if ch.PredictedAt(t) {
		return
	}
	ch.PredictRange(t, 0, len(ch.mem))
	ch.MarkPredicted(t)
}

// Fixed64Max is the largest fixed-point coordinate value.
const Fixed64Max = gfixed.Fixed64(math.MaxInt64)

// BatchCycles returns the number of clock cycles a batch of ni i-particles
// against nj j-particles occupies the chip: the i-particles are served in
// passes of Pipelines×VMP; each pass streams the whole j-memory at VMP
// cycles per j-particle (each j-particle is applied to the VMP virtual
// pipelines in turn) plus the pipeline drain latency. The count depends
// only on the workload shape, so the board can account cycles analytically
// no matter how the emulation of the batch is striped across host cores.
func (c Config) BatchCycles(ni, nj int) int64 {
	passes := (ni + c.IBatch() - 1) / c.IBatch()
	return int64(passes) * (int64(c.VMP)*int64(nj) + int64(c.PipelineDepth))
}

// ForceBatchInto is the allocation-free force path: it evaluates the batch
// into the caller-owned slab dst (len(dst) must be ≥ len(is); dst[i] is
// re-initialised with the i-particle's exponents) and returns the number
// of clock cycles the batch occupies the chip. Steady-state callers reuse
// the same slab across evaluations, so the hot path performs no heap
// allocation at all — as on the real chip, whose accumulators are
// registers.
//
// Cycle model: see Config.BatchCycles.
//
//grape:noalloc
func (ch *Chip) ForceBatchInto(dst []Partial, t float64, is []IParticle, eps float64) int64 {
	return ch.ForceBatchRangeInto(dst, t, is, eps, 0, len(ch.mem))
}

// ForceBatchRangeInto evaluates the batch against only the memory slots
// [lo, hi), the j-striping primitive for spreading one chip's force work
// across host cores: block-floating-point accumulation is exact integer
// addition, so per-stripe partials Merge into results bit-identical to a
// whole-memory stream (the Section 3.4 partition-invariance property,
// applied within a chip instead of across chips). Out-of-range and
// reversed bounds are clamped to an empty range, never a panic.
//
// The i-particles are broadcast and the j-range streamed past them, the
// loop order of the real chip. forceTile takes two pairs per step, so the
// batch goes through the range two i-particles at a time. The one an odd
// batch leaves over — every one-particle block's — is both lanes itself,
// over the two halves of the range: the second half accumulates into a
// partial of its own on the same three exponents, an odd last slot goes
// through forcePair, and the two merge. That is one more partition of the
// j-range, exact for the same reason as the others.
//
// Prediction of a missing time runs lazily over the WHOLE memory, which
// is only safe single-threaded. Callers striping one chip across
// goroutines mark it predicted at t first (MarkPredicted) and have each
// span PredictRange its own slots before this call reads them; the lazy
// predict is then a no-op. The returned cycle count covers just this
// range; callers striping a chip account whole-chip cycles via
// Config.BatchCycles.
//
//grape:noalloc
func (ch *Chip) ForceBatchRangeInto(dst []Partial, t float64, is []IParticle, eps float64, lo, hi int) int64 {
	if len(dst) < len(is) {
		slabPanic(len(dst), len(is))
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(ch.mem) {
		hi = len(ch.mem)
	}
	if hi < lo {
		hi = lo
	}
	ch.Predict(t)
	f := ch.cfg.Format
	e2 := f.Round(eps * eps)
	// Format constants hoisted out of the pairwise loop: the mantissa
	// rounder's masks and the fixed-point scale factor (exactly 2^-PosFrac;
	// the bit-level layout stays gfixed's business).
	r := f.Rounder()
	invPos := f.PosResolution()

	for i := range is {
		dst[i].Init(f, is[i].ExpAcc, is[i].ExpJerk, is[i].ExpPot)
	}
	// An empty range runs no kernel: lo may lie past the planes forceTile
	// would slice.
	if n := hi - lo; n > 0 {
		lone := len(is) &^ 1 // index of the i-particle without a partner
		for i := 0; i < lone; i += 2 {
			ch.forceTile(&is[i], &dst[i], lo, &is[i+1], &dst[i+1], lo, n, e2, r, invPos)
		}
		if lone < len(is) {
			half := dst[lone] // its second-half partial
			h := n / 2
			ch.forceTile(&is[lone], &dst[lone], lo, &is[lone], &half, lo+h, h, e2, r, invPos)
			if n&1 != 0 {
				ch.forcePair(&is[lone], &dst[lone], e2, r, invPos, hi-1)
			}
			dst[lone].Merge(&half)
		}
	}

	return ch.cfg.BatchCycles(len(is), hi-lo)
}

// slabPanic reports an undersized partial slab. The formatting machinery
// lives here, off the noalloc force path, so the annotated kernels carry
// no interface boxing on their cold error branch.
func slabPanic(got, want int) {
	//grapelint:ignore noalloc cold panic path: runs once, when a caller hands the kernel an undersized slab, and the program dies
	panic(fmt.Sprintf("chip: partial slab of %d for %d i-particles", got, want))
}

// forceTile is the pair loop, two lanes wide: lane A streams the n slots
// from loA against ipA into pA, lane B the n slots from loB against ipB
// into pB, slot k of both in the same iteration, so the processor always
// has two independent chains of roundings to overlap — the emulation's
// share of the chip's 48 i-particles per streamed j-particle. The lanes are
// two i-particles on one range (loA == loB) or one i-particle on the two
// halves of a range (ipA == ipB, see ForceBatchRangeInto); pA and pB must be
// distinct. r and invPos are the caller-hoisted mantissa rounder and
// fixed-point scale (invariant across the whole batch). Only the SoA
// hot-set planes are read — eight 8-byte words per slot, never the full
// JParticle record.
//
// The pair loop makes no function call. It proceeds in runs: a run holds
// both lanes' seven sums and nearest neighbour in locals and evaluates every
// pipeline stage of the two pairs side by side with gfixed's inlined
// RoundTame / AddTame. Those are exact only on tame values (gfixed.TameExp)
// and on plain in-range adds, so:
//
//   - a call runs this way only if the softening e2 (a rounded square, so
//     never negative) is tame and, in both partials, each group of three
//     shares one scale; any other call goes slot by slot through forcePair;
//   - a run ends for both lanes, before either has changed anything, at a
//     slot where either lane's r2 is not positive (a self-pair with zero
//     softening), where one guard finds a free input of either pair — the
//     mass, the three raw velocity differences — not tame, or where the OR
//     of the fourteen AddTame miss words is set (a sum near or past
//     saturation, as Merge can leave one, misses every time). Coordinate
//     differences need no check: an int64 difference scaled by 2^-PosFrac
//     is zero or in [2^-62, 2^63].
//
// Given those, every rounding's argument is zero or normal and finite.
// With r2 in [2^-128, 2^130] (tame e2 plus at most three squares in
// [2^-124, 2^126]): rinv in [2^-65, 2^64], rinv2 in [2^-130, 2^128], and
// each later stage multiplies at most one tame mass, one tame velocity and
// bounded geometry, so magnitudes stay inside 2^±830; a sum or difference
// of such terms is zero or at least an ulp of the smaller term, still
// hundreds of binades above the subnormals. No Inf arises, hence no NaN.
// So every argument lies inside RoundTame's domain, ±0 and the normals
// below 2^(1023-s) for s = 53 - MantBits, which at every valid width
// includes [2^-1022, 2^972) — 142 binades of margin above 2^830.
//
// The slot that ended a run goes through forcePair for both lanes — which
// is also where Overflow gets set: a run never sees a contribution that
// leaves the block format — and the next run starts after it. Nothing
// inside a pair differs from forcePair: same operations, operands, order.
//
//grape:noalloc
func (ch *Chip) forceTile(ipA *IParticle, pA *Partial, loA int, ipB *IParticle, pB *Partial, loB int, n int, e2 float64, r gfixed.Rounder, invPos float64) {
	// Reslice every plane to the same length so the compiler can prove
	// the indexed loads below in bounds once, outside the loop.
	xA0, xA1, xA2 := ch.px[0][loA:][:n], ch.px[1][loA:][:n], ch.px[2][loA:][:n]
	vA0, vA1, vA2 := ch.pv[0][loA:][:n], ch.pv[1][loA:][:n], ch.pv[2][loA:][:n]
	massA, idA := ch.mass[loA:][:n], ch.id[loA:][:n]
	xB0, xB1, xB2 := ch.px[0][loB:][:n], ch.px[1][loB:][:n], ch.px[2][loB:][:n]
	vB0, vB1, vB2 := ch.pv[0][loB:][:n], ch.pv[1][loB:][:n], ch.pv[2][loB:][:n]
	massB, idB := ch.mass[loB:][:n], ch.id[loB:][:n]
	ixA, iyA, izA := ipA.X[0], ipA.X[1], ipA.X[2]
	ixB, iyB, izB := ipB.X[0], ipB.X[1], ipB.X[2]
	ivxA, ivyA, ivzA := ipA.V[0], ipA.V[1], ipA.V[2]
	ivxB, ivyB, ivzB := ipB.V[0], ipB.V[1], ipB.V[2]
	scaleAA, scaleJA, scalePA, okA := pA.groupScales()
	scaleAB, scaleJB, scalePB, okB := pB.groupScales()
	tame := gfixed.Untame(e2) == 0 && okA && okB

	for k := 0; k < n; k++ {
		if !tame {
			ch.forcePair(ipA, pA, e2, r, invPos, loA+k)
			ch.forcePair(ipB, pB, e2, r, invPos, loB+k)
			continue
		}
		a0A, a1A, a2A := pA.Acc[0].Sum, pA.Acc[1].Sum, pA.Acc[2].Sum
		a0B, a1B, a2B := pB.Acc[0].Sum, pB.Acc[1].Sum, pB.Acc[2].Sum
		j0A, j1A, j2A := pA.Jerk[0].Sum, pA.Jerk[1].Sum, pA.Jerk[2].Sum
		j0B, j1B, j2B := pB.Jerk[0].Sum, pB.Jerk[1].Sum, pB.Jerk[2].Sum
		potA, potB := pA.Pot.Sum, pB.Pot.Sum
		nnA, nnd2A := pA.NN, pA.NND2
		nnB, nnd2B := pB.NN, pB.NND2
		for ; k < n; k++ {
			// Stage 1: coordinate difference, exact in fixed point, then
			// converted to the pipeline float format.
			dxA := r.RoundTame(float64(xA0[k]-ixA) * invPos)
			dxB := r.RoundTame(float64(xB0[k]-ixB) * invPos)
			dyA := r.RoundTame(float64(xA1[k]-iyA) * invPos)
			dyB := r.RoundTame(float64(xB1[k]-iyB) * invPos)
			dzA := r.RoundTame(float64(xA2[k]-izA) * invPos)
			dzB := r.RoundTame(float64(xB2[k]-izB) * invPos)

			// Stage 2: squared distance with softening.
			r2A := r.RoundTame(dxA*dxA + dyA*dyA + dzA*dzA + e2)
			r2B := r.RoundTame(dxB*dxB + dyB*dyB + dzB*dzB + e2)
			if r2A <= 0 || r2B <= 0 {
				// Self-pair with zero softening: forcePair masks it. (Its
				// infinite rinv would miss in AddTame and end the run as
				// well; the stages below are argued for r2 > 0.)
				break
			}

			mA, mB := massA[k], massB[k]
			dvxA, dvyA, dvzA := vA0[k]-ivxA, vA1[k]-ivyA, vA2[k]-ivzA
			dvxB, dvyB, dvzB := vB0[k]-ivxB, vB1[k]-ivyB, vB2[k]-ivzB
			if gfixed.Untame(mA)|gfixed.Untame(dvxA)|gfixed.Untame(dvyA)|gfixed.Untame(dvzA)|
				gfixed.Untame(mB)|gfixed.Untame(dvxB)|gfixed.Untame(dvyB)|gfixed.Untame(dvzB) != 0 {
				break
			}
			dvxA, dvyA, dvzA = r.RoundTame(dvxA), r.RoundTame(dvyA), r.RoundTame(dvzA)
			dvxB, dvyB, dvzB = r.RoundTame(dvxB), r.RoundTame(dvyB), r.RoundTame(dvzB)

			// Stage 3: inverse square root and force factor.
			rinvA := r.RoundTame(1 / math.Sqrt(r2A))
			rinvB := r.RoundTame(1 / math.Sqrt(r2B))
			rinv2A := r.RoundTame(rinvA * rinvA)
			rinv2B := r.RoundTame(rinvB * rinvB)
			mrinvA := r.RoundTame(mA * rinvA)
			mrinvB := r.RoundTame(mB * rinvB)
			mrinv3A := r.RoundTame(mrinvA * rinv2A)
			mrinv3B := r.RoundTame(mrinvB * rinv2B)

			// Stage 4: (v·r)/(r²+ε²).
			rvA := r.RoundTame((dxA*dvxA + dyA*dvyA + dzA*dvzA) * rinv2A)
			rvB := r.RoundTame((dxB*dvxB + dyB*dvyB + dzB*dvzB) * rinv2B)
			rv3A := r.RoundTame(3 * rvA)
			rv3B := r.RoundTame(3 * rvB)

			// Stage 5: accumulate in block floating point. The sums commit
			// together, so a slot that ends the run has changed nothing.
			na0A, m0A := gfixed.AddTame(a0A, r.RoundTame(mrinv3A*dxA), scaleAA)
			na0B, m0B := gfixed.AddTame(a0B, r.RoundTame(mrinv3B*dxB), scaleAB)
			na1A, m1A := gfixed.AddTame(a1A, r.RoundTame(mrinv3A*dyA), scaleAA)
			na1B, m1B := gfixed.AddTame(a1B, r.RoundTame(mrinv3B*dyB), scaleAB)
			na2A, m2A := gfixed.AddTame(a2A, r.RoundTame(mrinv3A*dzA), scaleAA)
			na2B, m2B := gfixed.AddTame(a2B, r.RoundTame(mrinv3B*dzB), scaleAB)
			nj0A, m3A := gfixed.AddTame(j0A, r.RoundTame(mrinv3A*r.RoundTame(dvxA-rv3A*dxA)), scaleJA)
			nj0B, m3B := gfixed.AddTame(j0B, r.RoundTame(mrinv3B*r.RoundTame(dvxB-rv3B*dxB)), scaleJB)
			nj1A, m4A := gfixed.AddTame(j1A, r.RoundTame(mrinv3A*r.RoundTame(dvyA-rv3A*dyA)), scaleJA)
			nj1B, m4B := gfixed.AddTame(j1B, r.RoundTame(mrinv3B*r.RoundTame(dvyB-rv3B*dyB)), scaleJB)
			nj2A, m5A := gfixed.AddTame(j2A, r.RoundTame(mrinv3A*r.RoundTame(dvzA-rv3A*dzA)), scaleJA)
			nj2B, m5B := gfixed.AddTame(j2B, r.RoundTame(mrinv3B*r.RoundTame(dvzB-rv3B*dzB)), scaleJB)
			npotA, m6A := gfixed.AddTame(potA, -mrinvA, scalePA)
			npotB, m6B := gfixed.AddTame(potB, -mrinvB, scalePB)
			if m0A|m1A|m2A|m3A|m4A|m5A|m6A|m0B|m1B|m2B|m3B|m4B|m5B|m6B != 0 {
				break
			}
			a0A, a1A, a2A, j0A, j1A, j2A, potA = na0A, na1A, na2A, nj0A, nj1A, nj2A, npotA
			a0B, a1B, a2B, j0B, j1B, j2B, potB = na0B, na1B, na2B, nj0B, nj1B, nj2B, npotB

			// Nearest-neighbour unit, excluding the self-pair by id.
			if idA[k] != ipA.SelfID && (r2A < nnd2A || (r2A == nnd2A && (nnA < 0 || idA[k] < nnA))) {
				nnd2A = r2A
				nnA = idA[k]
			}
			if idB[k] != ipB.SelfID && (r2B < nnd2B || (r2B == nnd2B && (nnB < 0 || idB[k] < nnB))) {
				nnd2B = r2B
				nnB = idB[k]
			}
		}
		pA.Acc[0].Sum, pA.Acc[1].Sum, pA.Acc[2].Sum = a0A, a1A, a2A
		pB.Acc[0].Sum, pB.Acc[1].Sum, pB.Acc[2].Sum = a0B, a1B, a2B
		pA.Jerk[0].Sum, pA.Jerk[1].Sum, pA.Jerk[2].Sum = j0A, j1A, j2A
		pB.Jerk[0].Sum, pB.Jerk[1].Sum, pB.Jerk[2].Sum = j0B, j1B, j2B
		pA.Pot.Sum, pB.Pot.Sum = potA, potB
		pA.NN, pA.NND2 = nnA, nnd2A
		pB.NN, pB.NND2 = nnB, nnd2B
		if k < n {
			ch.forcePair(ipA, pA, e2, r, invPos, loA+k)
			ch.forcePair(ipB, pB, e2, r, invPos, loB+k)
		}
	}
}

// groupScales returns the AddTame scale of each group of three and whether
// every member of a group is on its group's scale. Partial.Init gives each
// group one exponent; a partial built any other way is not worth four more
// live scales in the pair loop.
//
//grape:noalloc
func (p *Partial) groupScales() (acc, jerk, pot float64, uniform bool) {
	acc, jerk, pot = p.Acc[0].Scale(), p.Jerk[0].Scale(), p.Pot.Scale()
	return acc, jerk, pot, p.Acc[1].Scale() == acc && p.Acc[2].Scale() == acc &&
		p.Jerk[1].Scale() == jerk && p.Jerk[2].Scale() == jerk
}

// forcePair evaluates the single pair (ip, slot k) with gfixed's exact
// Round and Add, which are defined on every float64 and every accumulator
// state. It is the pipeline's specification, one call per stage; forceTile
// is the same arithmetic restricted to where the inlinable forms are
// exact, and hands over here for the pairs outside it.
//
//grape:noalloc
func (ch *Chip) forcePair(ip *IParticle, p *Partial, e2 float64, r gfixed.Rounder, invPos float64, k int) {
	dx := r.Round(float64(ch.px[0][k]-ip.X[0]) * invPos)
	dy := r.Round(float64(ch.px[1][k]-ip.X[1]) * invPos)
	dz := r.Round(float64(ch.px[2][k]-ip.X[2]) * invPos)
	dvx := r.Round(ch.pv[0][k] - ip.V[0])
	dvy := r.Round(ch.pv[1][k] - ip.V[1])
	dvz := r.Round(ch.pv[2][k] - ip.V[2])

	r2 := r.Round(dx*dx + dy*dy + dz*dz + e2)
	if r2 <= 0 {
		return
	}

	rinv := r.Round(1 / math.Sqrt(r2))
	rinv2 := r.Round(rinv * rinv)
	mrinv := r.Round(ch.mass[k] * rinv)
	mrinv3 := r.Round(mrinv * rinv2)

	rv := r.Round((dx*dvx + dy*dvy + dz*dvz) * rinv2)
	rv3 := r.Round(3 * rv)

	p.Acc[0].Add(r.Round(mrinv3 * dx))
	p.Acc[1].Add(r.Round(mrinv3 * dy))
	p.Acc[2].Add(r.Round(mrinv3 * dz))
	p.Jerk[0].Add(r.Round(mrinv3 * r.Round(dvx-rv3*dx)))
	p.Jerk[1].Add(r.Round(mrinv3 * r.Round(dvy-rv3*dy)))
	p.Jerk[2].Add(r.Round(mrinv3 * r.Round(dvz-rv3*dz)))
	p.Pot.Add(-mrinv)

	if id := ch.id[k]; id != ip.SelfID && (r2 < p.NND2 || (r2 == p.NND2 && (p.NN < 0 || id < p.NN))) {
		p.NND2 = r2
		p.NN = id
	}
}
