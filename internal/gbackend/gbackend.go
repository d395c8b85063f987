// Package gbackend adapts the emulated GRAPE-6 hardware (a board.Array) to
// the integrator's Backend interface, playing the role of the host-side
// GRAPE library: it keeps the hardware's j-particle memory in sync with
// the integrator, chooses block-floating-point exponents (from the
// previous step's force, per Section 3.4), retries on overflow, and
// accounts the hardware cycles consumed so the timing layer can convert
// the run into the paper's performance numbers. It addresses particles by
// their slot in the system last loaded, as hermite.Backend does; ids are
// labels it hands the hardware (UpdateJ, SelfID), never indexes.
package gbackend

import (
	"fmt"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/direct"
	"grape6/internal/gfixed"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// headroom is the exponent margin above the expected result magnitude.
const headroom = 6

// maxRetries bounds the overflow-retry loop; exceeding it indicates a
// non-finite force (e.g. an unsoftened collision) rather than a bad guess.
const maxRetries = 12

// Array is the hardware contract the backend drives: the subset of
// *board.Array the GRAPE library layer actually uses. A dedicated
// attachment satisfies it directly; a multi-tenant lease from the
// grape6d scheduler satisfies it by routing force evaluations through
// the shared fleet. The backend cannot tell the difference — by the
// scheduler's bit-exactness contract, a leased array returns the same
// result bits (and the same per-request cycle counts) as a dedicated one.
type Array interface {
	// LoadJ installs a j-set (see board.Array.LoadJ).
	LoadJ(ps []chip.JParticle) error
	// UpdateJ rewrites the memory image of a loaded particle.
	UpdateJ(p chip.JParticle) error
	// ForcesInto evaluates forces on is at time t into dst and returns
	// the hardware cycles consumed.
	ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64
	// BeginPredict hints the next evaluation time ahead of ForcesInto. No
	// in-tree array acts on it: board.Array predicts inside the force
	// pass, and a grape6d session ignores it.
	BeginPredict(t float64)
	// NJ returns the number of loaded j-particles.
	NJ() int
	// Config returns the attachment's hardware configuration.
	Config() board.Config
	// Close releases the attachment's resources.
	Close()
}

// Backend drives an Array — a dedicated board.Array or a scheduler
// lease — as the force engine of a Hermite integration.
type Backend struct {
	arr Array
	f   gfixed.Format

	// owned records whether Close tears the array down. New hands the
	// backend a dedicated attachment it owns outright; NewBorrowed
	// attaches to shared hardware (a scheduler lease, or an array another
	// component owns) that Close must leave running — a borrowed fleet
	// has other tenants.
	owned  bool
	closed bool

	// Host-side mirror of the hardware memory image, used to predict
	// i-particles through the chip's exact datapath (so self-pairs cancel
	// bit-exactly) and to rebuild particles on update. The mirror and the
	// per-particle exponent tables are indexed by slot in the system last
	// loaded, the index space Update and ForcesInto take. They persist
	// across Load calls (grow-only), so Update patches only the changed
	// slots and a reload reuses the fixed-point-ready staging wholesale.
	js   []chip.JParticle
	expA []int // per-particle block exponents (previous-step guess)
	expJ []int
	expP []int

	// Counters for performance accounting and diagnostics.
	HWCycles    int64 // hardware busy cycles
	Retries     int64 // overflow-retry force evaluations
	RangeClamps int64 // coordinates clamped to the fixed-point range

	// Scratch reused across ForcesInto calls so that a steady-state block step
	// allocates nothing: i-particle staging, retry bookkeeping, and the
	// hardware partial-result slab.
	isBuf    []chip.IParticle
	batch    []chip.IParticle
	pending  []int
	again    []int
	partials []chip.Partial
}

// New returns a Backend that owns the given hardware attachment: Close
// shuts the array's worker pool down with the backend.
func New(arr *board.Array) *Backend {
	return &Backend{arr: arr, owned: true, f: arr.Config().Chip.Format}
}

// NewBorrowed returns a Backend over hardware it does not own — a
// grape6d scheduler lease, or a dedicated array whose lifecycle someone
// else manages. Close detaches without closing the array, so other
// tenants of a shared fleet are unaffected.
func NewBorrowed(arr Array) *Backend {
	return &Backend{arr: arr, owned: false, f: arr.Config().Chip.Format}
}

// Array exposes the underlying hardware (for inspection in tests and the
// timing layer).
func (b *Backend) Array() Array { return b.arr }

// Owned reports whether Close tears down the underlying array.
func (b *Backend) Owned() bool { return b.owned }

// NJ implements hermite.Backend.
func (b *Backend) NJ() int { return b.arr.NJ() }

// Load implements hermite.Backend.
func (b *Backend) Load(sys *nbody.System) {
	b.js = growSlice(b.js, sys.N)[:sys.N]
	b.expA = growSlice(b.expA, sys.N)[:sys.N]
	b.expJ = growSlice(b.expJ, sys.N)[:sys.N]
	b.expP = growSlice(b.expP, sys.N)[:sys.N]
	for i := 0; i < sys.N; i++ {
		b.js[i] = b.makeJ(sys, i)
		b.expA[i], b.expJ[i], b.expP[i] = b.guessExponents(sys, i)
	}
	if err := b.arr.LoadJ(b.js); err != nil {
		// A board.Array load cannot fail: a set larger than the chips'
		// memory streams in pages. A grape6d session's load fails on a
		// detached session or repeated ids, both caller errors
		// (nbody.System.Validate refuses a system whose ids repeat).
		panic(fmt.Sprintf("gbackend: %v", err))
	}
}

// Update implements hermite.Backend.
func (b *Backend) Update(sys *nbody.System, idx []int) {
	for _, i := range idx {
		b.js[i] = b.makeJ(sys, i)
		if err := b.arr.UpdateJ(b.js[i]); err != nil {
			panic(fmt.Sprintf("gbackend: %v", err))
		}
		b.expA[i], b.expJ[i], b.expP[i] = b.guessExponents(sys, i)
	}
}

// makeJ converts one particle to the hardware format, clamping
// out-of-range coordinates (escapers) to the format's edge.
func (b *Backend) makeJ(sys *nbody.System, i int) chip.JParticle {
	p, err := chip.MakeJParticle(b.f, sys.ID[i], sys.Time[i], sys.Mass[i],
		sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
	if err != nil {
		b.RangeClamps++
		clamped := clampV3(sys.Pos[i], b.f.PosRange()*0.999)
		p, err = chip.MakeJParticle(b.f, sys.ID[i], sys.Time[i], sys.Mass[i],
			clamped, sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
		if err != nil {
			panic(fmt.Sprintf("gbackend: clamp failed: %v", err))
		}
	}
	return p
}

func clampV3(v vec.V3, lim float64) vec.V3 {
	cl := func(x float64) float64 {
		if x > lim {
			return lim
		}
		if x < -lim {
			return -lim
		}
		return x
	}
	return vec.New(cl(v.X), cl(v.Y), cl(v.Z))
}

// guessExponents derives block exponents from the particle's last known
// force — the "value of the exponent at the previous timestep is almost
// always okay" strategy of Section 3.4.
func (b *Backend) guessExponents(sys *nbody.System, i int) (ea, ej, ep int) {
	ea = gfixed.ExponentFor(sys.Acc[i].MaxAbs(), headroom)
	ej = gfixed.ExponentFor(sys.Jerk[i].MaxAbs(), headroom)
	ep = gfixed.ExponentFor(sys.Pot[i], headroom)
	// Fresh systems have zero forces; start from an O(1) guess.
	if sys.Acc[i] == vec.Zero {
		ea = headroom + 2
	}
	if sys.Jerk[i] == vec.Zero {
		ej = headroom + 4
	}
	if sys.Pot[i] == 0 {
		ep = headroom + 4
	}
	return ea, ej, ep
}

// BeginPredict implements hermite.PredictAheadBackend by forwarding the
// hint to the array, where it is a no-op: the board predicts each span's
// j-slots inside the force pass, so nothing is left to start ahead.
func (b *Backend) BeginPredict(t float64) { b.arr.BeginPredict(t) }

// Yield implements hermite.YieldBackend by forwarding to the array when
// it exposes a Yield method (a grape6d session, which ignores it); a
// dedicated attachment has no other tenants to yield to, so the hint is
// dropped.
func (b *Backend) Yield() {
	if y, ok := b.arr.(interface{ Yield() }); ok {
		y.Yield()
	}
}

// ForcesInto implements hermite.Backend for the loaded particles at
// slots: results are written into the caller-owned dst (len(dst) must be
// ≥ len(slots)) and the filled prefix is returned. All staging buffers —
// i-particles, retry bookkeeping and the hardware partial slab — live on
// the Backend, so a steady-state block step performs no heap allocation
// from the integrator down to the chips.
//
// The supplied (xi, vi) host predictions are intentionally ignored: the
// backend predicts i-particles from its own image through the chip's
// datapath, which both matches the hardware behaviour (the same
// predictor feeds both sides) and guarantees that self-pairs cancel
// exactly. The i-particles must therefore be loaded particles: nil slots
// with a non-empty batch panic.
func (b *Backend) ForcesInto(dst []direct.Force, t float64, slots []int, xi, vi []vec.V3, eps float64) []direct.Force {
	if slots == nil && len(xi) > 0 {
		panic("gbackend: i-particles that are not loaded particles (nil slots)")
	}
	n := len(slots)
	if len(dst) < n {
		panic(fmt.Sprintf("gbackend: force buffer of %d for %d i-particles", len(dst), n))
	}
	out := dst[:n]
	b.isBuf = growSlice(b.isBuf, n)
	is := b.isBuf
	for q, k := range slots {
		x, v := chip.PredictParticle(b.f, &b.js[k], t)
		is[q] = chip.IParticle{
			X: x, V: v, SelfID: b.js[k].ID,
			ExpAcc: b.expA[k], ExpJerk: b.expJ[k], ExpPot: b.expP[k],
		}
	}

	pending := b.pending[:0] // indices into is/out still to resolve
	for q := 0; q < n; q++ {
		pending = append(pending, q)
	}
	next := b.again[:0]

	for round := 0; len(pending) > 0; round++ {
		if round > maxRetries {
			panic(fmt.Sprintf("gbackend: force exponent did not converge after %d retries "+
				"(non-finite force, e.g. unsoftened collision?)", maxRetries))
		}
		b.batch = growSlice(b.batch, len(pending))
		batch := b.batch[:len(pending)]
		for q, p := range pending {
			batch[q] = is[p]
		}
		b.partials = growSlice(b.partials, len(batch))
		ps := b.partials[:len(batch)]
		b.HWCycles += b.arr.ForcesInto(ps, t, batch, eps)
		if round > 0 {
			b.Retries++
		}

		next = next[:0]
		for q, p := range pending {
			if ps[q].Overflowed() {
				// Bump the failing groups and retry — the hardware's
				// repeat-with-better-exponent protocol.
				k := slots[p]
				if anyOverflow(ps[q].Acc[:]) {
					b.expA[k] += 8
				}
				if anyOverflow(ps[q].Jerk[:]) {
					b.expJ[k] += 8
				}
				if ps[q].Pot.Overflow {
					b.expP[k] += 8
				}
				is[p].ExpAcc, is[p].ExpJerk, is[p].ExpPot = b.expA[k], b.expJ[k], b.expP[k]
				next = append(next, p)
				continue
			}
			acc, jerk, pot := chip.PartialValues(&ps[q])
			out[p] = direct.Force{
				Acc: acc, Jerk: jerk, Pot: pot,
				NN: ps[q].NN, NND2: ps[q].NND2,
			}
		}
		pending, next = next, pending
	}
	b.pending, b.again = pending[:0], next[:0]
	return out
}

// Close releases the hardware attachment. An owned array is closed
// exactly once (repeat Closes are no-ops); a borrowed array is never
// closed — on a shared fleet that would tear down other tenants' silicon.
func (b *Backend) Close() {
	if b.closed {
		return
	}
	b.closed = true
	if b.owned {
		b.arr.Close()
	}
}

// growSlice returns s with length ≥ n, reallocating only on growth.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func anyOverflow(as []gfixed.Accum) bool {
	for _, a := range as {
		if a.Overflow {
			return true
		}
	}
	return false
}
