package ahmadcohen

import (
	"math"
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/xrand"
)

func TestParamsValidation(t *testing.T) {
	p := hermite.DefaultParams(0.01)
	p.Eta = -1
	if _, err := New(model.Plummer(8, xrand.New(1)), p); err == nil {
		t.Error("accepted bad hermite params")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nbody.New(1), hermite.DefaultParams(0.01)); err == nil {
		t.Error("accepted single particle")
	}
	sys := model.Plummer(8, xrand.New(1))
	sys.Time[3] = 0.5
	if _, err := New(sys, hermite.DefaultParams(0.01)); err == nil {
		t.Error("accepted unsynchronised system")
	}
}

func TestInitialForceSplit(t *testing.T) {
	// aIrr + aReg must equal the total direct force at init.
	sys := model.Plummer(64, xrand.New(2))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.N; i++ {
		sum := it.ps[i].aIrr.Add(it.ps[i].aReg)
		if d := sum.Dist(sys.Acc[i]); d > 1e-13*(1+sys.Acc[i].Norm()) {
			t.Fatalf("particle %d: force split inconsistent by %v", i, d)
		}
	}
}

func TestNeighbourCountsNearTarget(t *testing.T) {
	sys := model.Plummer(256, xrand.New(3))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	mean := it.MeanNeighbours()
	if mean < targetNeighbours/4 || mean > targetNeighbours*4 {
		t.Errorf("mean neighbours = %v, target %d", mean, targetNeighbours)
	}
}

func TestEnergyConservation(t *testing.T) {
	sys := model.Plummer(128, xrand.New(4))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	e0 := it.Energy()
	it.Run(0.5)
	e1 := it.Energy()
	if rel := math.Abs((e1 - e0) / e0); rel > 5e-4 {
		t.Errorf("AC-scheme energy error = %v", rel)
	}
	if it.IrrSteps == 0 || it.RegSteps == 0 {
		t.Errorf("steps: irr=%d reg=%d", it.IrrSteps, it.RegSteps)
	}
}

func TestRegularStepsAreRarer(t *testing.T) {
	sys := model.Plummer(128, xrand.New(5))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	it.Run(0.25)
	if it.RegSteps*2 >= it.IrrSteps {
		t.Errorf("regular steps (%d) not much rarer than irregular (%d)", it.RegSteps, it.IrrSteps)
	}
}

func TestPairOpsSavings(t *testing.T) {
	// The scheme's point: fewer pairwise evaluations than plain Hermite
	// for the same integration interval.
	n := 256
	until := 0.25
	eps := 1.0 / 64

	acSys := model.Plummer(n, xrand.New(6))
	ac, err := New(acSys, hermite.DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	ac.Run(until)

	plainSys := model.Plummer(n, xrand.New(6))
	plain, err := hermite.New(plainSys, hermite.NewDirectBackend(), hermite.DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(until)

	if ac.PairOps >= plain.Interactions {
		t.Errorf("AC pair ops %d not below plain Hermite %d", ac.PairOps, plain.Interactions)
	}
	saving := float64(plain.Interactions) / float64(ac.PairOps)
	t.Logf("pairwise-work saving factor at N=%d: %.2f", n, saving)
	if saving < 1.3 {
		t.Errorf("saving factor only %.2f, expected >1.3", saving)
	}
}

func TestTrajectoriesCloseToPlainHermite(t *testing.T) {
	n := 96
	until := 0.125
	eps := 1.0 / 64

	acSys := model.Plummer(n, xrand.New(7))
	ac, err := New(acSys, hermite.DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	ac.Run(until)
	acSnap := ac.Synchronize(until)

	plainSys := model.Plummer(n, xrand.New(7))
	plain, err := hermite.New(plainSys, hermite.NewDirectBackend(), hermite.DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(until)
	plainSnap := plain.Synchronize(until)

	var maxDev float64
	for i := 0; i < n; i++ {
		if d := acSnap.Pos[i].Dist(plainSnap.Pos[i]); d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 5e-3 {
		t.Errorf("AC trajectories deviate from plain Hermite by %v", maxDev)
	}
}

func TestBlocksAndTimes(t *testing.T) {
	sys := model.Plummer(64, xrand.New(8))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for k := 0; k < 100; k++ {
		st := it.Step()
		if st.Size < 1 {
			t.Fatalf("empty block at step %d", k)
		}
		if st.Time <= prev {
			t.Fatalf("non-increasing block times")
		}
		prev = st.Time
	}
	if it.Blocks != 100 {
		t.Errorf("blocks = %d", it.Blocks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *nbody.System {
		sys := model.Plummer(64, xrand.New(9))
		it, err := New(sys, hermite.DefaultParams(1.0/64))
		if err != nil {
			t.Fatal(err)
		}
		it.Run(0.125)
		return sys
	}
	a, b := run(), run()
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("non-deterministic AC integration at %d", i)
		}
	}
}

func BenchmarkACStep256(b *testing.B) {
	sys := model.Plummer(256, xrand.New(1))
	it, err := New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step()
	}
}
