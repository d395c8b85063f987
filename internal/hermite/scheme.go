// Package hermite implements the 4th-order Hermite individual-block-
// timestep integration scheme of Makino & Aarseth (1992), the algorithm
// GRAPE-6's frontend hosts run (Section 4 of the paper). The force
// evaluation is delegated to a Backend — either the float64 reference
// kernels or the emulated GRAPE-6 hardware — mirroring the paper's split
// between frontend and special-purpose hardware.
package hermite

import (
	"math"

	"grape6/internal/vec"
)

// Predict evaluates the predictor polynomials, eqs. (6)-(7) of the paper,
// advancing state (x0, v0, a0, j0, s0) from its own time by dt. s0 is the
// second derivative of the acceleration (snap) retained from the previous
// corrector; passing the zero vector degrades gracefully to the standard
// third-order predictor.
func Predict(x0, v0, a0, j0, s0 vec.V3, dt float64) (xp, vp vec.V3) {
	dt2 := dt * dt / 2
	dt3 := dt * dt2 / 3
	dt4 := dt * dt3 / 4
	xp = x0.
		AddScaled(dt, v0).
		AddScaled(dt2, a0).
		AddScaled(dt3, j0).
		AddScaled(dt4, s0)
	vp = v0.
		AddScaled(dt, a0).
		AddScaled(dt2, j0).
		AddScaled(dt3, s0)
	return xp, vp
}

// Correct applies the Hermite corrector over a step dt: given the state
// (x0, v0) and force (a0, j0) at the start of the step and the force
// (a1, j1) evaluated at the predicted end-of-step state, it returns the
// corrected position and velocity in the Makino & Aarseth (1992) form —
// the third-order prediction plus the 4th/5th-order terms built from the
// reconstructed snap and crackle:
//
//	x1 = x0 + dt v0 + dt²/2 a0 + dt³/6 ȧ0 + dt⁴/24 a⁽²⁾ + dt⁵/120 a⁽³⁾,
//	v1 = v0 + dt a0 + dt²/2 ȧ0 + dt³/6 a⁽²⁾ + dt⁴/24 a⁽³⁾,
//
// together with the reconstructed snap at the END of the step and the
// (constant over the step) crackle, both needed by the next prediction and
// by the Aarseth timestep criterion. The corrector is exact when the true
// acceleration is a cubic polynomial of time.
func Correct(x0, v0, a0, j0, a1, j1 vec.V3, dt float64) (x1, v1, snap1, crackle vec.V3) {
	// Snap/crackle at the start of the step (Makino & Aarseth 1992).
	inv2 := 1 / (dt * dt)
	inv3 := inv2 / dt
	da := a0.Sub(a1)
	snap0 := da.Scale(-6 * inv2).Sub(j0.Scale(4 * inv2 * dt)).Sub(j1.Scale(2 * inv2 * dt))
	crackle = da.Scale(12 * inv3).Add(j0.Add(j1).Scale(6 * inv3 * dt))

	dt2 := dt * dt / 2
	dt3 := dt * dt2 / 3
	dt4 := dt * dt3 / 4
	dt5 := dt * dt4 / 5
	x1 = x0.
		AddScaled(dt, v0).
		AddScaled(dt2, a0).
		AddScaled(dt3, j0).
		AddScaled(dt4, snap0).
		AddScaled(dt5, crackle)
	v1 = v0.
		AddScaled(dt, a0).
		AddScaled(dt2, j0).
		AddScaled(dt3, snap0).
		AddScaled(dt4, crackle)

	// Snap at the end of the step.
	snap1 = snap0.AddScaled(dt, crackle)
	return x1, v1, snap1, crackle
}

// AarsethStep returns the timestep from Aarseth's criterion,
//
//	dt = η √[ (|a||a⁽²⁾| + |ȧ|²) / (|ȧ||a⁽³⁾| + |a⁽²⁾|²) ],
//
// using the force and its three derivatives at the particle's current time.
func AarsethStep(a, j, snap, crackle vec.V3, eta float64) float64 {
	num := a.Norm()*snap.Norm() + j.Norm2()
	den := j.Norm()*crackle.Norm() + snap.Norm2()
	if den == 0 {
		if num == 0 {
			return math.Inf(1)
		}
		return math.Inf(1)
	}
	return eta * math.Sqrt(num/den)
}

// InitialStep returns the startup timestep η_s |a|/|ȧ|, used before the
// higher derivatives exist.
func InitialStep(a, j vec.V3, etaS float64) float64 {
	jn := j.Norm()
	if jn == 0 {
		return math.Inf(1)
	}
	return etaS * a.Norm() / jn
}

// floorPow2 returns the largest power of two ≤ x (x > 0).
func floorPow2(x float64) float64 {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	if math.IsInf(x, 1) {
		return math.Inf(1)
	}
	_, e := math.Frexp(x) // x = f × 2^e with f in [0.5, 1)
	return math.Ldexp(1, e-1)
}

// QuantizeInitial converts a desired timestep into the block-scheme form:
// a power of two clamped to [MinStep, MaxStep].
func QuantizeInitial(desired float64) float64 {
	return min(max(floorPow2(desired), MinStep), MaxStep)
}

// NextStep implements the block-timestep update rule: the new step must be
// a power of two; it may shrink freely (halving as often as needed) but may
// grow only by a single doubling, and only when the doubled step remains
// commensurate with the current time t (i.e. t is a multiple of the doubled
// step). The result is clamped to [MinStep, MaxStep].
func NextStep(current, desired, t float64) float64 {
	dt := current
	if desired < dt {
		for dt > MinStep && desired < dt {
			dt /= 2
		}
	} else if desired >= 2*dt && dt < MaxStep {
		if commensurate(t, 2*dt) {
			dt *= 2
		}
	}
	return min(max(dt, MinStep), MaxStep)
}

// commensurate reports whether t is an integer multiple of step. Both are
// exact binary fractions in this scheme, so the float computation is exact
// whenever t/step is within the integer-representable range.
func commensurate(t, step float64) bool {
	if step == 0 {
		return false
	}
	q := t / step
	return q == math.Trunc(q)
}
