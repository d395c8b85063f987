package hermite

import (
	"grape6/internal/direct"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// Backend is the force-calculation service consumed by the integrator. It
// mirrors the host↔GRAPE contract: the backend stores the full j-particle
// set (with the Hermite state needed to predict each particle to any
// system time), and evaluates forces on a block of predicted i-particles.
//
// Backends include the self-interaction (as the real hardware does): with
// softening ε > 0 the self-pair contributes nothing to acceleration and
// jerk but contributes -m_i/ε to the potential, which the integrator adds
// back. With ε = 0 the exactly-zero-distance pair is skipped.
type Backend interface {
	// Load replaces the stored j-particle set with the particles of sys.
	Load(sys *nbody.System)

	// Update refreshes the stored state of the particles at the given
	// indices after the integrator corrected them.
	Update(sys *nbody.System, idx []int)

	// ForcesInto predicts all stored j-particles to time t and evaluates
	// eqs. (1)-(3) on the i-particles with predicted states (xi, vi) and
	// softening eps. ids carries the i-particles' stable IDs (for backends
	// that care, e.g. tracing). Results are written in input order into
	// the caller-owned dst (len(dst) ≥ len(ids)) and the filled prefix is
	// returned: the integrator reuses one buffer across block steps, so
	// the force path allocates nothing in steady state.
	ForcesInto(dst []direct.Force, t float64, ids []int, xi, vi []vec.V3, eps float64) []direct.Force

	// NJ returns the number of stored j-particles.
	NJ() int
}

// ForcesIntoBackend is Backend under the name it had while ForcesInto was
// an optional extension; benchmark/trace.go still asserts it.
type ForcesIntoBackend = Backend

// PredictAheadBackend is the optional host/GRAPE-overlap extension of
// Backend (the paper's §6): BeginPredict(t) announces the next evaluation
// time so a backend could predict its stored j-particles ahead of the
// force call. It never changes any result, and no in-tree backend acts on
// it (gbackend forwards it to a board.Array or grape6d session, both of
// which predict inside the force pass). The integrator calls it with the
// next block time right after Update.
type PredictAheadBackend interface {
	Backend
	BeginPredict(t float64)
}

// YieldBackend is the optional multi-tenant extension of Backend: Yield
// announces that the integrator is entering a host phase (correction,
// rebinning, block selection) and will not need the force engine until
// the next block's evaluation. It is a scheduling hint only and never
// changes any result; no in-tree backend acts on it (gbackend forwards
// it to a grape6d session, which serves requests in arrival order
// whatever a tenant's phase). The integrator calls it at the end of every
// block step.
type YieldBackend interface {
	Backend
	Yield()
}

// jstate is the per-particle state a backend needs to run the predictor
// pipeline, eqs. (6)-(7).
type jstate struct {
	mass float64
	t0   float64
	x0   vec.V3
	v0   vec.V3
	a0   vec.V3
	j0   vec.V3
	s0   vec.V3
}

// DirectBackend is the reference "software GRAPE": float64 predictor and
// float64 force kernels, parallelised over the host's cores.
type DirectBackend struct {
	js []jstate

	// scratch buffers reused across calls
	mass []float64
	pos  []vec.V3
	vel  []vec.V3

	// When predOK, pos/vel hold every particle predicted to predT, and
	// another evaluation at predT reuses them; Load and Update clear it.
	predT  float64
	predOK bool
}

// NewDirectBackend returns an empty DirectBackend.
func NewDirectBackend() *DirectBackend { return &DirectBackend{} }

// predictAll runs the predictor pass (eqs. (6)-(7) in float64) for every
// stored j-particle, striped across the host's cores. The per-particle
// arithmetic is pure, so striping cannot change a bit of the result.
func (b *DirectBackend) predictAll(t float64) {
	direct.ParallelFor(len(b.js), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dt := t - b.js[i].t0
			b.pos[i], b.vel[i] = Predict(b.js[i].x0, b.js[i].v0, b.js[i].a0, b.js[i].j0, b.js[i].s0, dt)
		}
	})
}

// Load implements Backend.
func (b *DirectBackend) Load(sys *nbody.System) {
	b.predOK = false
	b.js = make([]jstate, sys.N)
	for i := 0; i < sys.N; i++ {
		b.js[i] = jstate{
			mass: sys.Mass[i],
			t0:   sys.Time[i],
			x0:   sys.Pos[i],
			v0:   sys.Vel[i],
			a0:   sys.Acc[i],
			j0:   sys.Jerk[i],
			s0:   sys.Snap[i],
		}
	}
	b.mass = make([]float64, sys.N)
	b.pos = make([]vec.V3, sys.N)
	b.vel = make([]vec.V3, sys.N)
	for i := range b.js {
		b.mass[i] = b.js[i].mass
	}
}

// Update implements Backend.
func (b *DirectBackend) Update(sys *nbody.System, idx []int) {
	b.predOK = false
	for _, i := range idx {
		b.js[i] = jstate{
			mass: sys.Mass[i],
			t0:   sys.Time[i],
			x0:   sys.Pos[i],
			v0:   sys.Vel[i],
			a0:   sys.Acc[i],
			j0:   sys.Jerk[i],
			s0:   sys.Snap[i],
		}
		b.mass[i] = sys.Mass[i]
	}
}

// NJ implements Backend.
func (b *DirectBackend) NJ() int { return len(b.js) }

// ForcesInto implements Backend.
func (b *DirectBackend) ForcesInto(dst []direct.Force, t float64, ids []int, xi, vi []vec.V3, eps float64) []direct.Force {
	// Predictor pass over all stored j-particles (the chip's predictor
	// pipeline does exactly this in hardware), unless the last evaluation
	// was at this t and nothing has been written since.
	if !b.predOK || b.predT != t {
		b.predictAll(t)
		b.predT, b.predOK = t, true
	}
	js := direct.JSet{Mass: b.mass, Pos: b.pos, Vel: b.vel}
	if len(xi) >= 16 && len(b.js) >= 512 {
		return direct.EvalAllParallelInto(dst, xi, vi, js, eps, false)
	}
	return direct.EvalAllInto(dst, xi, vi, js, eps, false)
}
