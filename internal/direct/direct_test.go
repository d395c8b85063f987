package direct

import (
	"math"
	"runtime"
	"testing"

	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func jsetFrom(mass []float64, pos, vel []vec.V3) JSet {
	return JSet{Mass: mass, Pos: pos, Vel: vel}
}

func TestEvalSingleSource(t *testing.T) {
	// Unit mass at distance 2 along x, no softening:
	// a = m/r² = 1/4 toward the source; pot = -1/2.
	js := jsetFrom([]float64{1}, []vec.V3{vec.New(2, 0, 0)}, []vec.V3{vec.Zero})
	f := EvalSkip(vec.Zero, vec.Zero, js, 0, -1)
	if math.Abs(f.Acc.X-0.25) > 1e-15 || f.Acc.Y != 0 || f.Acc.Z != 0 {
		t.Errorf("acc = %v", f.Acc)
	}
	if math.Abs(f.Pot+0.5) > 1e-15 {
		t.Errorf("pot = %v", f.Pot)
	}
	if f.NN != 0 {
		t.Errorf("NN = %d", f.NN)
	}
}

func TestEvalSoftening(t *testing.T) {
	// With eps² = 3 and r² = 1: a = m / (1+3)^{3/2} = 1/8.
	js := jsetFrom([]float64{1}, []vec.V3{vec.New(1, 0, 0)}, []vec.V3{vec.Zero})
	f := EvalSkip(vec.Zero, vec.Zero, js, math.Sqrt(3), -1)
	if math.Abs(f.Acc.X-0.125) > 1e-15 {
		t.Errorf("softened acc = %v", f.Acc.X)
	}
	if math.Abs(f.Pot+0.5) > 1e-15 { // pot = -1/sqrt(4) = -1/2
		t.Errorf("softened pot = %v", f.Pot)
	}
}

func TestEvalJerkRadial(t *testing.T) {
	// Source at (1,0,0) moving with v=(1,0,0) relative (receding radially):
	// rv = (v·r)/r² = 1. jerk = m/r³ (v - 3 rv r) = (1 - 3·1·1, 0, 0) = (-2,0,0).
	js := jsetFrom([]float64{1}, []vec.V3{vec.New(1, 0, 0)}, []vec.V3{vec.New(1, 0, 0)})
	f := EvalSkip(vec.Zero, vec.Zero, js, 0, -1)
	if math.Abs(f.Jerk.X+2) > 1e-14 || math.Abs(f.Jerk.Y) > 1e-14 {
		t.Errorf("jerk = %v, want (-2,0,0)", f.Jerk)
	}
}

func TestEvalJerkTangential(t *testing.T) {
	// Source at (1,0,0) with relative velocity (0,1,0): rv = 0, so
	// jerk = m/r³ v = (0,1,0).
	js := jsetFrom([]float64{1}, []vec.V3{vec.New(1, 0, 0)}, []vec.V3{vec.New(0, 1, 0)})
	f := EvalSkip(vec.Zero, vec.Zero, js, 0, -1)
	if f.Jerk.Dist(vec.New(0, 1, 0)) > 1e-14 {
		t.Errorf("jerk = %v, want (0,1,0)", f.Jerk)
	}
}

func TestJerkIsDerivativeOfAcc(t *testing.T) {
	// Numerical check: jerk ≈ da/dt along the actual relative motion.
	xi := vec.New(0.1, -0.2, 0.3)
	vi := vec.New(0.05, 0.1, -0.02)
	js := jsetFrom(
		[]float64{2, 3},
		[]vec.V3{vec.New(1, 0.5, -0.2), vec.New(-0.7, 0.9, 1.1)},
		[]vec.V3{vec.New(-0.1, 0.2, 0.3), vec.New(0.4, -0.5, 0.6)},
	)
	eps := 0.05
	f0 := EvalSkip(xi, vi, js, eps, -1)

	dt := 1e-6
	// Advance everything by dt along straight lines.
	js2 := jsetFrom(
		js.Mass,
		[]vec.V3{js.Pos[0].AddScaled(dt, js.Vel[0]), js.Pos[1].AddScaled(dt, js.Vel[1])},
		js.Vel,
	)
	f1 := EvalSkip(xi.AddScaled(dt, vi), vi, js2, eps, -1)

	num := f1.Acc.Sub(f0.Acc).Scale(1 / dt)
	if num.Dist(f0.Jerk) > 1e-4*(1+f0.Jerk.Norm()) {
		t.Errorf("numerical da/dt = %v, analytic jerk = %v", num, f0.Jerk)
	}
}

func TestEvalSkipExcludesSelf(t *testing.T) {
	pos := []vec.V3{vec.New(0, 0, 0), vec.New(1, 0, 0)}
	vel := []vec.V3{vec.Zero, vec.Zero}
	js := jsetFrom([]float64{1, 1}, pos, vel)
	f := EvalSkip(pos[0], vel[0], js, 0, 0)
	// Only particle 1 contributes.
	if math.Abs(f.Acc.X-1) > 1e-15 {
		t.Errorf("acc with self skipped = %v", f.Acc)
	}
	if f.NN != 1 {
		t.Errorf("NN = %d", f.NN)
	}
}

func TestEvalZeroSofteningSelfPairSkipped(t *testing.T) {
	// A coincident particle with eps=0 must not produce NaN.
	pos := []vec.V3{vec.Zero, vec.New(1, 0, 0)}
	vel := []vec.V3{vec.Zero, vec.Zero}
	js := jsetFrom([]float64{1, 1}, pos, vel)
	f := EvalSkip(vec.Zero, vec.Zero, js, 0, -1)
	if !f.Acc.IsFinite() || math.IsNaN(f.Pot) {
		t.Errorf("coincident pair produced non-finite force: %+v", f)
	}
	if math.Abs(f.Acc.X-1) > 1e-15 {
		t.Errorf("acc = %v", f.Acc)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	// Momentum conservation: Σ m_i a_i = 0 for a self-contained system.
	rng := xrand.New(4)
	s := model.Plummer(200, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	var sum vec.V3
	for i := 0; i < s.N; i++ {
		f := EvalSkip(s.Pos[i], s.Vel[i], js, 0.01, i)
		sum = sum.AddScaled(s.Mass[i], f.Acc)
	}
	if sum.MaxAbs() > 1e-12 {
		t.Errorf("Σ m a = %v, want 0", sum)
	}
}

func TestJerkMomentumConservation(t *testing.T) {
	rng := xrand.New(5)
	s := model.Plummer(100, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	var sum vec.V3
	for i := 0; i < s.N; i++ {
		f := EvalSkip(s.Pos[i], s.Vel[i], js, 0.01, i)
		sum = sum.AddScaled(s.Mass[i], f.Jerk)
	}
	if sum.MaxAbs() > 1e-12 {
		t.Errorf("Σ m jerk = %v, want 0", sum)
	}
}

func TestEvalAllMatchesEvalSkip(t *testing.T) {
	rng := xrand.New(6)
	s := model.Plummer(64, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	all := EvalAllInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.02, true)
	for i := 0; i < s.N; i++ {
		one := EvalSkip(s.Pos[i], s.Vel[i], js, 0.02, i)
		if all[i].Acc != one.Acc || all[i].Jerk != one.Jerk || all[i].Pot != one.Pot {
			t.Fatalf("EvalAllInto[%d] differs from EvalSkip", i)
		}
	}
}

func TestEvalAllParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(7)
	s := model.Plummer(300, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	serial := EvalAllInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.02, true)
	par := EvalAllParallelInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.02, true)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("parallel force %d differs: %+v vs %+v", i, serial[i], par[i])
		}
	}
}

func TestEvalAllParallelSmallInputs(t *testing.T) {
	// Degenerate sizes must not panic or drop particles.
	for _, n := range []int{0, 1, 2, 3} {
		xs := make([]vec.V3, n)
		vs := make([]vec.V3, n)
		ms := make([]float64, n)
		for i := range xs {
			xs[i] = vec.New(float64(i), 0, 0)
			ms[i] = 1
		}
		out := EvalAllParallelInto(make([]Force, len(xs)), xs, vs, jsetFrom(ms, xs, vs), 0.1, true)
		if len(out) != n {
			t.Fatalf("n=%d: got %d results", n, len(out))
		}
	}
}

func TestNearestNeighbour(t *testing.T) {
	js := jsetFrom(
		[]float64{1, 1, 1},
		[]vec.V3{vec.New(5, 0, 0), vec.New(1, 0, 0), vec.New(3, 0, 0)},
		make([]vec.V3, 3),
	)
	f := EvalSkip(vec.Zero, vec.Zero, js, 0, -1)
	if f.NN != 1 {
		t.Errorf("NN = %d, want 1", f.NN)
	}
	if math.Abs(f.NND2-1) > 1e-15 {
		t.Errorf("NND2 = %v, want 1", f.NND2)
	}
}

func TestInteractions(t *testing.T) {
	if got := Interactions(1000, 2000); got != 2_000_000 {
		t.Errorf("Interactions = %d", got)
	}
	// Must not overflow for paper-scale N.
	if got := Interactions(2_000_000, 2_000_000); got != 4_000_000_000_000 {
		t.Errorf("paper-scale Interactions = %d", got)
	}
}

func TestPotentialEnergyConsistency(t *testing.T) {
	rng := xrand.New(8)
	s := model.Plummer(128, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	eps := 0.02
	var w float64
	for i := 0; i < s.N; i++ {
		f := EvalSkip(s.Pos[i], s.Vel[i], js, eps, i)
		w += 0.5 * s.Mass[i] * f.Pot
	}
	direct := s.PotentialEnergy(eps)
	if math.Abs(w-direct) > 1e-12*math.Abs(direct) {
		t.Errorf("Σ½mφ = %v, pairwise = %v", w, direct)
	}
}

func BenchmarkEval1024(b *testing.B) {
	rng := xrand.New(1)
	s := model.Plummer(1024, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalSkip(s.Pos[i%s.N], s.Vel[i%s.N], js, 0.01, i%s.N)
	}
}

func BenchmarkEvalAllParallel4096(b *testing.B) {
	rng := xrand.New(1)
	s := model.Plummer(4096, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	dst := make([]Force, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalAllParallelInto(dst, s.Pos[:256], s.Vel[:256], js, 0.01, false)
	}
}

// BenchmarkEvalAll64x2048 is the reference backend's steady state: 64
// i-particles of a 2048-particle set against all of it, allocation-free.
func BenchmarkEvalAll64x2048(b *testing.B) {
	s := model.Plummer(2048, xrand.New(1))
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	dst := make([]Force, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalAllInto(dst, s.Pos[:64], s.Vel[:64], js, 0.01, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(64*2048), "ns/pair")
}

func TestJSetLen(t *testing.T) {
	js := jsetFrom(make([]float64, 7), make([]vec.V3, 7), make([]vec.V3, 7))
	if js.Len() != 7 {
		t.Errorf("Len = %d", js.Len())
	}
}

func TestEvalAllParallelLargeUsesWorkers(t *testing.T) {
	// A workload large enough to take the multi-goroutine path; results
	// must match the serial evaluation bit for bit (same per-i arithmetic).
	rng := xrand.New(21)
	s := model.Plummer(700, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	par := EvalAllParallelInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.01, true)
	ser := EvalAllInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.01, true)
	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("parallel[%d] differs from serial", i)
		}
	}
}

func TestEvalAllParallelSingleWorkerPath(t *testing.T) {
	// With GOMAXPROCS forced to 1 the copy-through branch runs.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := xrand.New(22)
	s := model.Plummer(64, rng)
	js := jsetFrom(s.Mass, s.Pos, s.Vel)
	par := EvalAllParallelInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.01, true)
	ser := EvalAllInto(make([]Force, len(s.Pos)), s.Pos, s.Vel, js, 0.01, true)
	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("single-worker path differs at %d", i)
		}
	}
}
