package hermite

import (
	"fmt"
	"math"

	"grape6/internal/direct"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// Block-step bounds: every step is a power of two in [MinStep, MaxStep].
const (
	MinStep = 0x1p-23
	MaxStep = 0x1p-3
)

// Params collects the integrator's accuracy parameters.
type Params struct {
	Eta  float64 // Aarseth timestep accuracy parameter
	EtaS float64 // startup timestep parameter
	Eps  float64 // Plummer softening length
}

// DefaultParams returns the parameters used for the paper-style benchmark
// runs: η = 0.02 with softening eps.
func DefaultParams(eps float64) Params {
	return Params{Eta: 0.02, EtaS: 0.01, Eps: eps}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if !(p.Eta > 0 && p.EtaS > 0) || math.IsInf(p.Eta, 0) || math.IsInf(p.EtaS, 0) {
		return fmt.Errorf("hermite: eta parameters must be positive and finite (eta=%v etaS=%v)", p.Eta, p.EtaS)
	}
	if !(p.Eps >= 0) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("hermite: softening %v is not a finite non-negative length", p.Eps)
	}
	return nil
}

// BlockStat describes one block step, the record consumed by the timing
// simulator's trace input.
type BlockStat struct {
	Time float64 // system time of the block
	Size int     // number of particles integrated in the block

	// Bins is the number of occupied timestep bins when the block fired
	// (scheduler occupancy; 0 for producers that do not track it, e.g.
	// synthetic traces).
	Bins int
}

// Integrator advances an N-body system with individual block timesteps.
type Integrator struct {
	Sys *nbody.System
	B   Backend
	P   Params

	// T is the current system time (time of the last completed block).
	T float64

	// Counters for the paper's performance accounting.
	Steps        int64 // individual particle steps
	Blocks       int64 // block steps
	Interactions int64 // pairwise interactions evaluated

	// sched buckets particles by step exponent so block selection is
	// O(active block) instead of the O(N) MinTime scan.
	sched *nbody.BlockSched

	// scratch buffers, sized at New for the largest block there can be
	// (all N), so no block step grows them
	block []int
	xp    []vec.V3
	vp    []vec.V3
	fbuf  []direct.Force // force results, reused across block steps

	// pab is B when it supports predict-ahead, cached once at New; yb
	// likewise when it supports the multi-tenant yield hint.
	pab PredictAheadBackend
	yb  YieldBackend
}

// prefetchPredict hands the backend the next block time ahead of the
// host work between blocks — the paper's §6 host/GRAPE overlap hook. No
// in-tree backend acts on it (see PredictAheadBackend).
func (it *Integrator) prefetchPredict() {
	if it.pab != nil {
		it.pab.BeginPredict(it.sched.NextTime())
	}
}

// forces evaluates block forces on the particles at slots through the
// backend into the reused result buffer.
func (it *Integrator) forces(t float64, slots []int, xi, vi []vec.V3) []direct.Force {
	if cap(it.fbuf) < len(slots) {
		it.fbuf = make([]direct.Force, len(slots))
	}
	return it.B.ForcesInto(it.fbuf[:len(slots)], t, slots, xi, vi, it.P.Eps)
}

// New initialises the integrator: it computes forces on all particles at
// their current times (assumed equal), assigns startup timesteps and loads
// the backend.
func New(sys *nbody.System, b Backend, p Params) (*Integrator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.N == 0 {
		return nil, fmt.Errorf("hermite: empty system")
	}
	t0 := sys.Time[0]
	for _, t := range sys.Time {
		if t != t0 {
			return nil, fmt.Errorf("hermite: particles not synchronised at init (t=%v vs %v)", t, t0)
		}
	}

	it := &Integrator{Sys: sys, B: b, P: p, T: t0}
	it.pab, _ = b.(PredictAheadBackend)
	it.yb, _ = b.(YieldBackend)
	b.Load(sys)

	// Full force evaluation at the common initial time.
	all := make([]int, sys.N)
	for i := range all {
		all[i] = i
	}
	fs := it.forces(t0, all, sys.Pos, sys.Vel)
	for i := range fs {
		Start(sys, i, fs[i], t0, p)
	}
	it.Interactions += int64(sys.N) * int64(b.NJ())
	b.Update(sys, all)
	it.sched = nbody.NewBlockSched(sys)
	it.block = all[:0]
	it.xp, it.vp = make([]vec.V3, sys.N), make([]vec.V3, sys.N)
	it.prefetchPredict()
	return it, nil
}

// Start sets particle i up at time t from its force f there: force and
// jerk, the potential, zero snap and crackle, and the startup block step.
func Start(sys *nbody.System, i int, f direct.Force, t float64, p Params) {
	sys.Acc[i], sys.Jerk[i] = f.Acc, f.Jerk
	sys.Pot[i] = correctedPot(f.Pot, sys.Mass[i], p.Eps)
	sys.Snap[i], sys.Crack[i] = vec.Zero, vec.Zero
	sys.Time[i] = t
	sys.Step[i] = QuantizeInitial(InitialStep(f.Acc, f.Jerk, p.EtaS))
}

// Advance completes particle i's step to time t with the force f
// evaluated at its predicted state: the Hermite corrector, the new force
// and potential, and the next block step from Aarseth's criterion.
func Advance(sys *nbody.System, i int, f direct.Force, t float64, p Params) {
	x1, v1, snap1, crackle := Correct(sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], f.Acc, f.Jerk, t-sys.Time[i])
	sys.Pos[i], sys.Vel[i] = x1, v1
	sys.Acc[i], sys.Jerk[i] = f.Acc, f.Jerk
	sys.Snap[i], sys.Crack[i] = snap1, crackle
	sys.Pot[i] = correctedPot(f.Pot, sys.Mass[i], p.Eps)
	sys.Time[i] = t
	desired := AarsethStep(f.Acc, f.Jerk, snap1, crackle, p.Eta)
	sys.Step[i] = NextStep(sys.Step[i], desired, t)
}

// correctedPot removes the self-interaction term -m/ε that backends
// include (as the hardware does) when ε > 0. Callers whose force leaves
// out the self-pair pass ε = 0.
func correctedPot(pot, m, eps float64) float64 {
	if eps > 0 {
		return pot + m/eps
	}
	return pot
}

// NextBlockTime returns the time of the next block to integrate.
func (it *Integrator) NextBlockTime() float64 {
	return it.sched.NextTime()
}

// Step advances the system by one block step and returns its statistics.
func (it *Integrator) Step() BlockStat {
	sys := it.Sys
	t := it.sched.NextTime()

	// Select the block: particles whose next time equals t exactly. Times
	// and steps are exact binary fractions, so equality is reliable, and
	// the bucketed scheduler reproduces the retired O(N) scan's
	// membership and ordering bit-for-bit in O(active block).
	it.block = it.sched.AppendBlock(sys, t, it.block[:0])

	nb := len(it.block)
	xp := it.xp[:nb]
	vp := it.vp[:nb]
	for k, i := range it.block {
		dt := t - sys.Time[i]
		xp[k], vp[k] = Predict(sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i], dt)
	}

	fs := it.forces(t, it.block, xp, vp)

	for k, i := range it.block {
		Advance(sys, i, fs[k], t, it.P)
		it.sched.Rebin(sys, i)
	}

	it.B.Update(sys, it.block)
	it.prefetchPredict()
	if it.yb != nil {
		// The host phase until the next block — the caller's bookkeeping,
		// block selection, i-particle prediction — needs no silicon: announce
		// it to a backend that takes the hint.
		it.yb.Yield()
	}

	it.T = t
	it.Steps += int64(nb)
	it.Blocks++
	it.Interactions += int64(nb) * int64(it.B.NJ())

	return BlockStat{Time: t, Size: nb, Bins: it.sched.Bins()}
}

// Run advances the system until the next block time would exceed `until`.
// On return every particle's individual time is ≤ until and the next block
// lies beyond it.
func (it *Integrator) Run(until float64) {
	for it.NextBlockTime() <= until {
		it.Step()
	}
}

// Synchronize predicts every particle to time t and returns a snapshot
// system with all particles at that common time. The integrator's own
// state is not modified. Used for diagnostics (energy, snapshots).
func (it *Integrator) Synchronize(t float64) *nbody.System {
	snap := it.Sys.Clone()
	for i := 0; i < snap.N; i++ {
		dt := t - snap.Time[i]
		snap.Pos[i], snap.Vel[i] = Predict(snap.Pos[i], snap.Vel[i], snap.Acc[i], snap.Jerk[i], snap.Snap[i], dt)
		snap.Time[i] = t
	}
	return snap
}

// Energy returns the total energy of the system synchronized at the
// current system time, using exact double-precision potential summation.
func (it *Integrator) Energy() float64 {
	snap := it.Synchronize(it.T)
	return snap.TotalEnergy(it.P.Eps)
}
