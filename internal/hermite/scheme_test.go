package hermite

import (
	"math"
	"testing"
	"testing/quick"

	"grape6/internal/vec"
)

func TestPredictConstantVelocity(t *testing.T) {
	x0 := vec.New(1, 2, 3)
	v0 := vec.New(1, 0, -1)
	xp, vp := Predict(x0, v0, vec.Zero, vec.Zero, vec.Zero, 2)
	if xp != vec.New(3, 2, 1) {
		t.Errorf("xp = %v", xp)
	}
	if vp != v0 {
		t.Errorf("vp = %v", vp)
	}
}

func TestPredictConstantAcceleration(t *testing.T) {
	a := vec.New(0, -10, 0)
	xp, vp := Predict(vec.Zero, vec.New(5, 0, 0), a, vec.Zero, vec.Zero, 1)
	if xp.Dist(vec.New(5, -5, 0)) > 1e-15 {
		t.Errorf("xp = %v", xp)
	}
	if vp.Dist(vec.New(5, -10, 0)) > 1e-15 {
		t.Errorf("vp = %v", vp)
	}
}

func TestPredictPolynomialExactness(t *testing.T) {
	// For a trajectory that IS a 4th-degree polynomial in t (constant
	// snap), the predictor must be exact.
	a0 := vec.New(1, -2, 0.5)
	j0 := vec.New(-0.3, 0.7, 1.1)
	s0 := vec.New(0.2, 0.1, -0.4)
	v0 := vec.New(3, -1, 2)
	x0 := vec.New(0.5, 0.25, -1)
	dt := 0.37
	xp, vp := Predict(x0, v0, a0, j0, s0, dt)

	// Direct evaluation.
	wantX := x0.
		AddScaled(dt, v0).
		AddScaled(dt*dt/2, a0).
		AddScaled(dt*dt*dt/6, j0).
		AddScaled(dt*dt*dt*dt/24, s0)
	wantV := v0.
		AddScaled(dt, a0).
		AddScaled(dt*dt/2, j0).
		AddScaled(dt*dt*dt/6, s0)
	if xp.Dist(wantX) > 1e-15 {
		t.Errorf("xp = %v, want %v", xp, wantX)
	}
	if vp.Dist(wantV) > 1e-15 {
		t.Errorf("vp = %v, want %v", vp, wantV)
	}
}

func TestCorrectRecoversPolynomialTrajectory(t *testing.T) {
	// Construct an acceleration that is a cubic polynomial of time:
	// a(t) = a0 + j0 t + s0 t²/2 + c0 t³/6. The Hermite corrector is exact
	// for such trajectories: reconstructed snap/crackle must match, and
	// the corrected (x1, v1) must equal the true Taylor series.
	a0 := vec.New(0.3, -1.2, 0.8)
	j0 := vec.New(-0.5, 0.4, 0.9)
	s0 := vec.New(1.5, -0.6, 0.2)
	c0 := vec.New(-0.8, 0.3, -1.1)
	x0 := vec.New(1, 2, 3)
	v0 := vec.New(-1, 0.5, 0.25)
	dt := 0.25

	// True end-of-step state from the Taylor series of the polynomial.
	at := func(t float64) vec.V3 {
		return a0.AddScaled(t, j0).AddScaled(t*t/2, s0).AddScaled(t*t*t/6, c0)
	}
	jt := func(t float64) vec.V3 {
		return j0.AddScaled(t, s0).AddScaled(t*t/2, c0)
	}
	a1, j1 := at(dt), jt(dt)

	xTrue := x0.
		AddScaled(dt, v0).
		AddScaled(dt*dt/2, a0).
		AddScaled(dt*dt*dt/6, j0).
		AddScaled(dt*dt*dt*dt/24, s0).
		AddScaled(dt*dt*dt*dt*dt/120, c0)
	vTrue := v0.
		AddScaled(dt, a0).
		AddScaled(dt*dt/2, j0).
		AddScaled(dt*dt*dt/6, s0).
		AddScaled(dt*dt*dt*dt/24, c0)

	x1, v1, snap1, crackle := Correct(x0, v0, a0, j0, a1, j1, dt)

	if crackle.Dist(c0) > 1e-10 {
		t.Errorf("crackle = %v, want %v", crackle, c0)
	}
	wantSnap1 := s0.AddScaled(dt, c0)
	if snap1.Dist(wantSnap1) > 1e-10 {
		t.Errorf("snap1 = %v, want %v", snap1, wantSnap1)
	}
	if x1.Dist(xTrue) > 1e-12 {
		t.Errorf("x1 = %v, want %v", x1, xTrue)
	}
	if v1.Dist(vTrue) > 1e-12 {
		t.Errorf("v1 = %v, want %v", v1, vTrue)
	}
}

func TestAarsethStep(t *testing.T) {
	a := vec.New(1, 0, 0)
	j := vec.New(0, 1, 0)
	s := vec.New(0, 0, 1)
	c := vec.New(1, 1, 1)
	// num = |a||s| + |j|² = 2; den = |j||c| + |s|² = √3 + 1.
	want := 0.02 * math.Sqrt(2/(math.Sqrt(3)+1))
	got := AarsethStep(a, j, s, c, 0.02)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("AarsethStep = %v, want %v", got, want)
	}
}

func TestAarsethStepZeroDenominator(t *testing.T) {
	got := AarsethStep(vec.New(1, 0, 0), vec.Zero, vec.Zero, vec.Zero, 0.02)
	if !math.IsInf(got, 1) {
		t.Errorf("AarsethStep with zero derivatives = %v, want +Inf", got)
	}
}

func TestInitialStep(t *testing.T) {
	got := InitialStep(vec.New(2, 0, 0), vec.New(0, 4, 0), 0.01)
	if math.Abs(got-0.005) > 1e-18 {
		t.Errorf("InitialStep = %v", got)
	}
	if !math.IsInf(InitialStep(vec.New(1, 0, 0), vec.Zero, 0.01), 1) {
		t.Error("InitialStep with zero jerk should be +Inf")
	}
}

func TestFloorPow2(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1, 1}, {1.5, 1}, {2, 2}, {3.999, 2}, {4, 4},
		{0.75, 0.5}, {0.5, 0.5}, {0.26, 0.25},
		{1e-9, math.Ldexp(1, -30)},
	}
	for _, c := range cases {
		if got := floorPow2(c.in); got != c.want {
			t.Errorf("floorPow2(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if floorPow2(0) != 0 || floorPow2(-1) != 0 {
		t.Error("floorPow2 of non-positive should be 0")
	}
	if !math.IsInf(floorPow2(math.Inf(1)), 1) {
		t.Error("floorPow2(+Inf) should be +Inf")
	}
	if floorPow2(math.NaN()) != 0 {
		t.Error("floorPow2(NaN) should be 0")
	}
}

func TestPropFloorPow2(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) || x < 1e-300 || x > 1e300 {
			return true
		}
		p := floorPow2(x)
		if p > x || 2*p <= x {
			return false
		}
		fr, _ := math.Frexp(p)
		return fr == 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeInitial(t *testing.T) {
	if got := QuantizeInitial(0.3); got != MaxStep {
		t.Errorf("clamped to max: %v", got)
	}
	if got := QuantizeInitial(1e-9); got != MinStep {
		t.Errorf("clamped to min: %v", got)
	}
	if got := QuantizeInitial(0.07); got != 0.0625 {
		t.Errorf("power of two floor: %v", got)
	}
}

func TestNextStepShrinksFreely(t *testing.T) {
	got := NextStep(MaxStep, 0.01, 1.0)
	// Halve until ≤ desired: 0.125→0.0625→...→0.0078125.
	if got != 1.0/128 {
		t.Errorf("NextStep shrink = %v, want %v", got, 1.0/128)
	}
}

func TestNextStepGrowsOnlyWhenCommensurate(t *testing.T) {
	// At t = 0.09375 a step of 0.03125 may NOT double to 0.0625
	// (0.09375/0.0625 is not integral).
	if got := NextStep(0.03125, 1.0, 0.09375); got != 0.03125 {
		t.Errorf("grew at non-commensurate time: %v", got)
	}
	// At t = 0.125 it may.
	if got := NextStep(0.03125, 1.0, 0.125); got != 0.0625 {
		t.Errorf("did not grow at commensurate time: %v", got)
	}
}

func TestNextStepGrowsAtMostOnce(t *testing.T) {
	// Even with desired far larger, only one doubling per update.
	if got := NextStep(0.03125, 100.0, 1.0); got != 0.0625 {
		t.Errorf("NextStep grew more than one doubling: %v", got)
	}
}

func TestNextStepRespectsBounds(t *testing.T) {
	if got := NextStep(MinStep, 1e-9, 1.0); got != MinStep {
		t.Errorf("NextStep below min: %v", got)
	}
	if got := NextStep(MaxStep, 10, 1.0); got != MaxStep {
		t.Errorf("NextStep above max: %v", got)
	}
}

func TestPropNextStepPowerOfTwoAndCommensurate(t *testing.T) {
	f := func(curExp, desiredMant uint8, tSteps uint16) bool {
		// current step 2^-(curExp%10+3), within [MinStep, MaxStep]; t a
		// multiple of current step.
		cur := math.Ldexp(1, -int(curExp%10)-3)
		tt := float64(tSteps) * cur
		desired := float64(desiredMant)/16 + 1e-6
		got := NextStep(cur, desired, tt)
		if !isPow2(got) {
			return false
		}
		// The particle's next time must stay commensurate with its step:
		// tt is a multiple of cur; got ≤ 2*cur; if got == 2*cur then
		// NextStep checked commensurability.
		return commensurate(tt, got) || got < cur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCommensurate(t *testing.T) {
	if !commensurate(0.75, 0.25) {
		t.Error("0.75 should be commensurate with 0.25")
	}
	if commensurate(0.75, 0.5) {
		t.Error("0.75 should not be commensurate with 0.5")
	}
	if !commensurate(0, 0.125) {
		t.Error("0 is commensurate with everything")
	}
	if commensurate(1, 0) {
		t.Error("step 0 is never commensurate")
	}
}
