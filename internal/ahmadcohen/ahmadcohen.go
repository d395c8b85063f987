// Package ahmadcohen implements the Ahmad-Cohen (1973) neighbour scheme on
// top of the 4th-order Hermite integrator — the algorithm of Makino &
// Aarseth (1992), the paper's reference [10], and the workhorse of the
// NBODY-family codes that ran on GRAPE hardware.
//
// The total force on a particle is split into an irregular part from the
// ~n_nb nearest neighbours, re-evaluated on every (short) irregular step,
// and a regular part from the rest of the system, re-evaluated only on
// (longer) regular steps and extrapolated linearly in between. For
// centrally concentrated systems this cuts the pairwise work per unit time
// by a large factor while keeping the Hermite accuracy — the software-side
// counterpart of the hardware acceleration the paper describes.
package ahmadcohen

import (
	"fmt"
	"math"

	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// NBODY-style neighbour settings.
const (
	// targetNeighbours is the desired neighbour count (clamped to N-1).
	targetNeighbours = 32

	// regFactor caps the ratio of regular to irregular step: the regular
	// step is at most regFactor times the irregular step (and at least
	// equal to it). Power of two.
	regFactor = 8
)

// corrector returns the Hermite parameters for hermite.Start and Advance:
// Eps = 0, because direct.EvalSkip leaves out the self-pair, so there is
// no −m/ε in the potential to take off.
func corrector(p hermite.Params) hermite.Params {
	p.Eps = 0
	return p
}

// pstate is the per-particle Ahmad-Cohen state beyond the nbody fields.
type pstate struct {
	nb    []int   // neighbour list (indices)
	rnb2  float64 // squared neighbour-sphere radius
	aIrr  vec.V3  // irregular force at Time
	jIrr  vec.V3
	aReg  vec.V3 // regular force at tReg
	jReg  vec.V3
	tReg  float64
	dtReg float64
	sIrr  vec.V3 // snap/crackle of the irregular+extrapolated force
	cIrr  vec.V3
}

// Integrator advances a system with the neighbour scheme.
type Integrator struct {
	Sys *nbody.System
	P   hermite.Params
	T   float64

	// Counters: the scheme's point is the PairOps saving.
	IrrSteps int64
	RegSteps int64
	Blocks   int64
	PairOps  int64 // pairwise force evaluations actually performed

	ps []pstate

	// sched buckets particles by step exponent so block selection is
	// O(active block) instead of an O(N) scan (shared with hermite).
	sched *nbody.BlockSched
	block []int

	// Prediction scratch. px/pv hold per-particle predicted states; pt is
	// the block time each entry was predicted at (NaN = never). Blocks
	// with only irregular steps predict just the block and its neighbour
	// lists lazily through pt; a block containing any regular step
	// refreshes the whole system (full-j force and neighbour rebuild read
	// every entry), so the O(N) predictor pass amortizes over the
	// ~regFactor irregular steps between regular ones.
	px, pv []vec.V3
	pt     []float64

	// eagerPredict restores the retired predict-everything-per-block
	// behaviour; the lazy path is tested bit-identical against it.
	eagerPredict bool
}

// New initialises the scheme: full forces, neighbour lists and startup
// steps at the common initial time.
func New(sys *nbody.System, p hermite.Params) (*Integrator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.N < 2 {
		return nil, fmt.Errorf("ahmadcohen: need at least 2 particles")
	}
	t0 := sys.Time[0]
	for _, t := range sys.Time {
		if t != t0 {
			return nil, fmt.Errorf("ahmadcohen: unsynchronised initial times")
		}
	}
	it := &Integrator{Sys: sys, P: p, T: t0}
	it.ps = make([]pstate, sys.N)
	it.px = make([]vec.V3, sys.N)
	it.pv = make([]vec.V3, sys.N)
	it.pt = make([]float64, sys.N)
	for i := range it.pt {
		it.pt[i] = math.NaN()
	}

	nnb := min(targetNeighbours, sys.N-1)

	// Initial neighbour radius from a homogeneous estimate around the
	// half-mass scale, refined per particle right below.
	r0 := 1.5 * math.Cbrt(float64(nnb)/float64(sys.N))

	js := direct.JSet{Mass: sys.Mass, Pos: sys.Pos, Vel: sys.Vel}
	for i := 0; i < sys.N; i++ {
		st := &it.ps[i]
		st.rnb2 = r0 * r0
		st.nb = neighboursWithin(sys, i, st.rnb2, st.nb)
		// Refine the radius toward the target count.
		for adjust := 0; adjust < 8 && (len(st.nb) < nnb/2 || len(st.nb) > nnb*2); adjust++ {
			st.rnb2 *= math.Pow(float64(nnb+1)/float64(len(st.nb)+1), 2.0/3.0)
			st.nb = neighboursWithin(sys, i, st.rnb2, st.nb)
		}

		total := direct.EvalSkip(sys.Pos[i], sys.Vel[i], js, p.Eps, i)
		aIrr, jIrr := it.irregularForce(i, sys.Pos, sys.Vel)
		it.PairOps += int64(sys.N - 1 + len(st.nb))

		st.aIrr, st.jIrr = aIrr, jIrr
		st.aReg = total.Acc.Sub(aIrr)
		st.jReg = total.Jerk.Sub(jIrr)
		st.tReg = t0

		hermite.Start(sys, i, total, t0, corrector(p))
		st.dtReg = min(sys.Step[i]*regFactor, hermite.MaxStep)
	}
	it.sched = nbody.NewBlockSched(sys)
	return it, nil
}

// neighboursWithin refills nb with the indices within the squared radius
// of i, reusing nb's backing array. Each particle threads its persistent
// list through, so steady-state rebuilds allocate only when a list grows
// past its historical maximum.
//
//grape:noalloc
func neighboursWithin(sys *nbody.System, i int, r2 float64, nb []int) []int {
	nb = nb[:0]
	for j := 0; j < sys.N; j++ {
		if j == i {
			continue
		}
		if sys.Pos[i].Dist2(sys.Pos[j]) < r2 {
			nb = append(nb, j)
		}
	}
	return nb
}

// irregularForce sums the neighbour contributions using the given
// (predicted) positions and velocities.
func (it *Integrator) irregularForce(i int, xs, vs []vec.V3) (a, j vec.V3) {
	sys := it.Sys
	e2 := it.P.Eps * it.P.Eps
	var ax, ay, az, jx, jy, jz float64
	xi, vi := xs[i], vs[i]
	for _, k := range it.ps[i].nb {
		dx := xs[k].X - xi.X
		dy := xs[k].Y - xi.Y
		dz := xs[k].Z - xi.Z
		dvx := vs[k].X - vi.X
		dvy := vs[k].Y - vi.Y
		dvz := vs[k].Z - vi.Z
		r2 := dx*dx + dy*dy + dz*dz + e2
		if r2 == 0 {
			continue
		}
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mr3 := sys.Mass[k] * rinv * rinv2
		rv := (dx*dvx + dy*dvy + dz*dvz) * rinv2
		ax += mr3 * dx
		ay += mr3 * dy
		az += mr3 * dz
		jx += mr3 * (dvx - 3*rv*dx)
		jy += mr3 * (dvy - 3*rv*dy)
		jz += mr3 * (dvz - 3*rv*dz)
	}
	return vec.V3{X: ax, Y: ay, Z: az}, vec.V3{X: jx, Y: jy, Z: jz}
}

// NextBlockTime returns the time of the next irregular block.
func (it *Integrator) NextBlockTime() float64 { return it.sched.NextTime() }

// predictTo stages particle i's predicted state at block time t, skipping
// entries already stamped for t.
//
//grape:noalloc
func (it *Integrator) predictTo(i int, t float64) {
	if it.pt[i] == t {
		return
	}
	sys := it.Sys
	dt := t - sys.Time[i]
	it.px[i], it.pv[i] = hermite.Predict(sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i], dt)
	it.pt[i] = t
}

// predictAll stages the whole system at t — required before any regular
// step (full-j force and neighbour rebuild reach every particle).
func (it *Integrator) predictAll(t float64) {
	sys := it.Sys
	for i := 0; i < sys.N; i++ {
		dt := t - sys.Time[i]
		it.px[i], it.pv[i] = hermite.Predict(sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i], dt)
		it.pt[i] = t
	}
}

// Step advances one irregular block step (performing regular steps for the
// particles whose regular time is due).
func (it *Integrator) Step() hermite.BlockStat {
	sys := it.Sys
	t := it.sched.NextTime()
	it.block = it.sched.AppendBlock(sys, t, it.block[:0])

	// Stage predictions before any corrector write. A block containing a
	// regular step needs the full system; a pure-irregular block touches
	// only its members and their neighbour lists, which is where the
	// Ahmad-Cohen amortization comes from.
	anyRegular := false
	for _, i := range it.block {
		if st := &it.ps[i]; t >= st.tReg+st.dtReg {
			anyRegular = true
			break
		}
	}
	if anyRegular || it.eagerPredict {
		it.predictAll(t)
	} else {
		for _, i := range it.block {
			it.predictTo(i, t)
			for _, k := range it.ps[i].nb {
				it.predictTo(k, t)
			}
		}
	}

	hp := corrector(it.P)
	for _, i := range it.block {
		st := &it.ps[i]

		// New irregular force at the predicted state.
		aIrr1, jIrr1 := it.irregularForce(i, it.px, it.pv)
		it.PairOps += int64(len(st.nb))

		regular := t >= st.tReg+st.dtReg

		var aReg1, jReg1 vec.V3
		var pot1 float64
		if regular {
			// Full force; rebuild the neighbour list at the new radius.
			js := direct.JSet{Mass: sys.Mass, Pos: it.px, Vel: it.pv}
			total := direct.EvalSkip(it.px[i], it.pv[i], js, it.P.Eps, i)
			it.PairOps += int64(sys.N - 1)
			pot1 = total.Pot

			// Adjust the neighbour sphere toward the target count.
			target := min(targetNeighbours, sys.N-1)
			st.rnb2 *= math.Pow(float64(target+1)/float64(len(st.nb)+1), 2.0/3.0)
			st.nb = predictedNeighboursWithin(it.px, i, st.rnb2, sys.N, st.nb)
			aIrr1, jIrr1 = it.irregularForce(i, it.px, it.pv)
			it.PairOps += int64(len(st.nb))

			aReg1 = total.Acc.Sub(aIrr1)
			jReg1 = total.Jerk.Sub(jIrr1)
		} else {
			// Extrapolate the regular force linearly to t.
			dtR := t - st.tReg
			aReg1 = st.aReg.AddScaled(dtR, st.jReg)
			jReg1 = st.jReg
			pot1 = sys.Pot[i] // potential refreshed on regular steps only
		}

		// Combined Hermite correction.
		f := direct.Force{Acc: aIrr1.Add(aReg1), Jerk: jIrr1.Add(jReg1), Pot: pot1}
		hermite.Advance(sys, i, f, t, hp)
		st.aIrr, st.jIrr = aIrr1, jIrr1
		it.sched.Rebin(sys, i)

		if regular {
			st.aReg, st.jReg = aReg1, jReg1
			st.tReg = t
			st.dtReg = min(sys.Step[i]*regFactor, hermite.MaxStep)
			it.RegSteps++
		}
		it.IrrSteps++
	}

	it.T = t
	it.Blocks++
	return hermite.BlockStat{Time: t, Size: len(it.block), Bins: it.sched.Bins()}
}

// predictedNeighboursWithin is neighboursWithin on the prediction
// buffers, with the same scratch-reuse contract.
//
//grape:noalloc
func predictedNeighboursWithin(px []vec.V3, i int, r2 float64, n int, nb []int) []int {
	nb = nb[:0]
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if px[i].Dist2(px[j]) < r2 {
			nb = append(nb, j)
		}
	}
	return nb
}

// Run advances until the next block would exceed `until`.
func (it *Integrator) Run(until float64) {
	for it.NextBlockTime() <= until {
		it.Step()
	}
}

// Synchronize predicts every particle to time t into a snapshot copy.
func (it *Integrator) Synchronize(t float64) *nbody.System {
	snap := it.Sys.Clone()
	for i := 0; i < snap.N; i++ {
		dt := t - snap.Time[i]
		snap.Pos[i], snap.Vel[i] = hermite.Predict(snap.Pos[i], snap.Vel[i], snap.Acc[i], snap.Jerk[i], snap.Snap[i], dt)
		snap.Time[i] = t
	}
	return snap
}

// Energy returns the synchronized total energy (exact potential).
func (it *Integrator) Energy() float64 {
	return it.Synchronize(it.T).TotalEnergy(it.P.Eps)
}

// MeanNeighbours returns the current average neighbour count.
func (it *Integrator) MeanNeighbours() float64 {
	var sum int
	for i := range it.ps {
		sum += len(it.ps[i].nb)
	}
	return float64(sum) / float64(len(it.ps))
}
