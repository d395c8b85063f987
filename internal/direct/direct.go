// Package direct implements the float64 reference force kernels: the exact
// (to double precision) evaluation of the gravitational acceleration, its
// time derivative (jerk) and the potential, eqs. (1)-(3) of the paper.
//
// These kernels are the ground truth against which the GRAPE-6 chip
// emulator is validated, and they double as the "software GRAPE" backend
// that lets every higher layer run without the hardware emulation.
//
// EvalSkip, one i-particle at a time, is the specification. EvalAllInto
// and EvalAllParallelInto give its bits, but on an amd64 CPU with AVX2
// (chosen once, by CPUID and XGETBV) they run the chip's trick at width
// four: each j-particle is broadcast to four i-particles, one per lane of
// a YMM register, and every lane performs EvalSkip's operations on the
// same operands in the same order. A lane that EvalSkip would skip (the
// self-pair, r2 == 0) adds +0 instead, which leaves a sum that started
// at +0 unchanged. The last quad of an i-set pads its empty lanes with
// its first i-particle and drops their results. Elsewhere EvalAllInto is
// EvalSkip per i-particle.
package direct

import (
	"math"
	"runtime"
	"sync"

	"grape6/internal/vec"
)

// Force is the result of evaluating eqs. (1)-(3) for one i-particle.
type Force struct {
	Acc  vec.V3  // eq. (1)
	Jerk vec.V3  // eq. (2)
	Pot  float64 // eq. (3)
	NN   int     // index of the nearest neighbour among the j-set, -1 if none
	NND2 float64 // squared distance (softened) to that neighbour
}

// JSet is the source-particle view consumed by the kernels: masses,
// positions and velocities of the particles exerting force. Slices must
// have equal length.
type JSet struct {
	Mass []float64
	Pos  []vec.V3
	Vel  []vec.V3
}

// Len returns the number of source particles.
func (j JSet) Len() int { return len(j.Mass) }

// EvalSkip computes the force on a particle at position xi with velocity
// vi from the particles in js, with Plummer softening eps, ignoring the
// source particle at index skip (pass -1 to keep all). This is how
// self-interaction is excluded when the j-set contains the i-particle
// itself; a source at zero softened distance (eps == 0 and an exact
// self-pair) is skipped as well.
func EvalSkip(xi, vi vec.V3, js JSet, eps float64, skip int) Force {
	e2 := eps * eps
	var ax, ay, az float64
	var jx, jy, jz float64
	var pot float64
	nn := -1
	nnd2 := math.Inf(1)

	for j := 0; j < len(js.Mass); j++ {
		if j == skip {
			continue
		}
		dx := js.Pos[j].X - xi.X
		dy := js.Pos[j].Y - xi.Y
		dz := js.Pos[j].Z - xi.Z
		dvx := js.Vel[j].X - vi.X
		dvy := js.Vel[j].Y - vi.Y
		dvz := js.Vel[j].Z - vi.Z

		r2 := dx*dx + dy*dy + dz*dz + e2
		if r2 == 0 {
			continue // exact self-pair with zero softening
		}
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mrinv3 := js.Mass[j] * rinv * rinv2

		// rv = (v_ij · r_ij) / (r_ij² + ε²)
		rv := (dx*dvx + dy*dvy + dz*dvz) * rinv2

		ax += mrinv3 * dx
		ay += mrinv3 * dy
		az += mrinv3 * dz

		jx += mrinv3 * (dvx - 3*rv*dx)
		jy += mrinv3 * (dvy - 3*rv*dy)
		jz += mrinv3 * (dvz - 3*rv*dz)

		pot -= js.Mass[j] * rinv

		if r2 < nnd2 {
			nnd2 = r2
			nn = j
		}
	}
	return Force{
		Acc:  vec.V3{X: ax, Y: ay, Z: az},
		Jerk: vec.V3{X: jx, Y: jy, Z: jz},
		Pot:  pot,
		NN:   nn,
		NND2: nnd2,
	}
}

// EvalAllInto computes forces on every particle in (xs, vs) from js into
// the caller-owned dst (len(dst) must be ≥ len(xs)) and returns the filled
// prefix. Self-pairs are excluded by index when selfSet is true (the
// i-set IS the j-set in the same order). Reusing dst across calls makes
// the reference backend allocation-free in steady state. Each result is
// bit-identical to EvalSkip's for that particle.
func EvalAllInto(dst []Force, xs, vs []vec.V3, js JSet, eps float64, selfSet bool) []Force {
	out := dst[:len(xs)]
	evalInto(out, xs, vs, js, eps, selfSet, 0)
	return out
}

// EvalAllParallelInto is EvalAllInto fanned out over GOMAXPROCS
// goroutines. The i-loop is embarrassingly parallel; each worker owns a
// contiguous range.
func EvalAllParallelInto(dst []Force, xs, vs []vec.V3, js JSet, eps float64, selfSet bool) []Force {
	out := dst[:len(xs)]
	ParallelFor(len(xs), 1, func(lo, hi int) {
		evalInto(out[lo:hi], xs[lo:hi], vs[lo:hi], js, eps, selfSet, lo)
	})
	return out
}

// evalEach is evalInto one i-particle at a time, by EvalSkip.
func evalEach(out []Force, xs, vs []vec.V3, js JSet, eps float64, selfSet bool, first int) {
	for k := range xs {
		skip := -1
		if selfSet {
			skip = first + k
		}
		out[k] = EvalSkip(xs[k], vs[k], js, eps, skip)
	}
}

// ParallelFor splits [0, n) into at most GOMAXPROCS contiguous chunks of at
// least minChunk elements each and runs fn on them concurrently, returning
// when all chunks are done. With one chunk (or GOMAXPROCS == 1) fn runs on
// the calling goroutine — no goroutines are spawned. fn must be safe to run
// concurrently on disjoint ranges.
func ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Interactions returns the number of pairwise interactions for ni
// i-particles against nj j-particles (the paper's flop accounting counts
// each as 57 operations).
func Interactions(ni, nj int) int64 {
	return int64(ni) * int64(nj)
}
