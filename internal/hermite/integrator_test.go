package hermite

import (
	"math"
	"slices"
	"testing"

	"grape6/internal/direct"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func TestNewRejectsBadParams(t *testing.T) {
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	p := DefaultParams(0)
	p.Eta = -1
	if _, err := New(sys, NewDirectBackend(), p); err == nil {
		t.Error("accepted negative eta")
	}
	if _, err := New(nbody.New(0), NewDirectBackend(), DefaultParams(0)); err == nil {
		t.Error("accepted empty system")
	}
}

func isPow2(x float64) bool {
	if x <= 0 {
		return false
	}
	f, _ := math.Frexp(x)
	return f == 0.5
}

// TestParamsRejectNonFinite: NaN passes every ordered comparison's
// negation, so a NaN or infinite eta or softening must be refused by name
// before it reaches a force pass.
func TestParamsRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []struct {
			name string
			f    func(p *Params)
		}{
			{"Eta", func(p *Params) { p.Eta = v }},
			{"EtaS", func(p *Params) { p.EtaS = v }},
			{"Eps", func(p *Params) { p.Eps = v }},
		} {
			p := DefaultParams(1.0 / 64)
			set.f(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %v", set.name, v)
			}
		}
	}
}

func TestNewRejectsUnsynchronised(t *testing.T) {
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	sys.Time[1] = 0.5
	if _, err := New(sys, NewDirectBackend(), DefaultParams(0)); err == nil {
		t.Error("accepted unsynchronised system")
	}
}

func TestInitSetsForces(t *testing.T) {
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	it, err := New(sys, NewDirectBackend(), DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	// a on body 0 from body 1: m/r² = 0.5 toward +x.
	if math.Abs(sys.Acc[0].X-0.5) > 1e-14 {
		t.Errorf("initial acc = %v", sys.Acc[0])
	}
	for i := 0; i < 2; i++ {
		if sys.Step[i] <= 0 || !isPow2(sys.Step[i]) {
			t.Errorf("initial step[%d] = %v", i, sys.Step[i])
		}
	}
	if it.Interactions != 4 {
		t.Errorf("init interactions = %d, want 4", it.Interactions)
	}
}

func TestSelfPotentialCorrection(t *testing.T) {
	// With eps > 0 the backend includes self-interaction (-m/ε in the
	// potential); the integrator must remove it, so the stored potential
	// must equal the exact pairwise value.
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	eps := 0.25
	_, err := New(sys, NewDirectBackend(), DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	// φ_0 = -m_1/√(r²+ε²).
	want := -0.5 / math.Sqrt(1+eps*eps)
	if math.Abs(sys.Pot[0]-want) > 1e-14 {
		t.Errorf("pot = %v, want %v", sys.Pot[0], want)
	}
}

func TestCircularOrbitEnergyConservation(t *testing.T) {
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	p := DefaultParams(0)
	it, err := New(sys, NewDirectBackend(), p)
	if err != nil {
		t.Fatal(err)
	}
	e0 := it.Energy()
	period := model.OrbitalPeriod(1, 1)
	it.Run(period) // one full orbit
	e1 := it.Energy()
	rel := math.Abs((e1 - e0) / e0)
	if rel > 1e-8 {
		t.Errorf("relative energy error after one orbit = %v", rel)
	}
}

func TestCircularOrbitReturnsToStart(t *testing.T) {
	sys := model.TwoBodyCircular(0.5, 0.5, 1)
	x0 := sys.Pos[0]
	it, err := New(sys, NewDirectBackend(), DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	period := model.OrbitalPeriod(1, 1)
	it.Run(period)
	snap := it.Synchronize(period)
	if d := snap.Pos[0].Dist(x0); d > 1e-4 {
		t.Errorf("body 0 missed closure by %v", d)
	}
}

func TestEccentricOrbitEnergyAndAngularMomentum(t *testing.T) {
	sys := model.TwoBodyEccentric(0.5, 0.5, 1, 0.7)
	it, err := New(sys, NewDirectBackend(), DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	e0 := it.Energy()
	l0 := it.Synchronize(0).AngularMomentum()
	period := model.OrbitalPeriod(1, 1)
	it.Run(2 * period)
	e1 := it.Energy()
	l1 := it.Synchronize(it.T).AngularMomentum()
	if rel := math.Abs((e1 - e0) / e0); rel > 1e-6 {
		t.Errorf("energy error over eccentric orbit = %v", rel)
	}
	if d := l1.Dist(l0); d > 1e-7 {
		t.Errorf("angular momentum drift = %v", d)
	}
}

func TestEnergyErrorScalesWithEta(t *testing.T) {
	// Smaller eta must give (much) smaller energy error.
	errAt := func(eta float64) float64 {
		sys := model.TwoBodyEccentric(0.5, 0.5, 1, 0.5)
		p := DefaultParams(0)
		p.Eta = eta
		p.EtaS = eta / 2
		it, err := New(sys, NewDirectBackend(), p)
		if err != nil {
			t.Fatal(err)
		}
		e0 := it.Energy()
		it.Run(model.OrbitalPeriod(1, 1))
		return math.Abs((it.Energy() - e0) / e0)
	}
	coarse := errAt(0.08)
	fine := errAt(0.02)
	if fine >= coarse {
		t.Errorf("energy error did not shrink with eta: coarse=%v fine=%v", coarse, fine)
	}
}

func TestPlummerEnergyConservation(t *testing.T) {
	sys := model.Plummer(128, xrand.New(42))
	eps := 1.0 / 64
	it, err := New(sys, NewDirectBackend(), DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	e0 := it.Energy()
	it.Run(1.0) // the paper's benchmark: 1 Heggie time unit
	e1 := it.Energy()
	rel := math.Abs((e1 - e0) / e0)
	if rel > 1e-4 {
		t.Errorf("Plummer energy error over 1 time unit = %v", rel)
	}
	if it.Steps == 0 || it.Blocks == 0 {
		t.Error("no steps recorded")
	}
	if it.Steps < int64(sys.N) {
		t.Errorf("only %d steps for %d particles", it.Steps, sys.N)
	}
}

func TestBlockStructure(t *testing.T) {
	sys := model.Plummer(64, xrand.New(7))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	var stats []BlockStat
	for it.NextBlockTime() <= 0.25 {
		stats = append(stats, it.Step())
	}
	if len(stats) == 0 {
		t.Fatal("no blocks recorded")
	}
	prev := -1.0
	var total int64
	for _, b := range stats {
		if b.Size < 1 || b.Size > sys.N {
			t.Fatalf("block size %d out of range", b.Size)
		}
		if b.Time <= prev {
			t.Fatalf("block times not strictly increasing: %v after %v", b.Time, prev)
		}
		prev = b.Time
		total += int64(b.Size)
	}
	if total != it.Steps {
		t.Errorf("trace total %d != Steps %d", total, it.Steps)
	}
}

func TestTimesStayCommensurate(t *testing.T) {
	sys := model.Plummer(32, xrand.New(3))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		it.Step()
		for i := 0; i < sys.N; i++ {
			if !isPow2(sys.Step[i]) {
				t.Fatalf("step[%d] = %v not a power of two", i, sys.Step[i])
			}
			if !commensurate(sys.Time[i], sys.Step[i]) {
				t.Fatalf("time %v not commensurate with step %v", sys.Time[i], sys.Step[i])
			}
			if sys.Time[i] > it.T {
				t.Fatalf("particle %d ahead of system time", i)
			}
		}
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	sys := model.Plummer(32, xrand.New(9))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	it.Run(0.5)
	if it.NextBlockTime() <= 0.5 {
		t.Errorf("next block %v should exceed 0.5", it.NextBlockTime())
	}
	for i := 0; i < sys.N; i++ {
		if sys.Time[i] > 0.5 {
			t.Errorf("particle %d overshot: t=%v", i, sys.Time[i])
		}
	}
}

func TestDeterministicIntegration(t *testing.T) {
	run := func() *nbody.System {
		sys := model.Plummer(48, xrand.New(11))
		it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
		if err != nil {
			t.Fatal(err)
		}
		it.Run(0.25)
		return sys
	}
	a, b := run(), run()
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatalf("non-deterministic result at particle %d", i)
		}
	}
}

func TestMassiveParticleSinks(t *testing.T) {
	// Sanity: black-hole particles get small timesteps relative to the
	// mean (they live in the dense centre and accelerate neighbours).
	sys := model.PlummerWithBlackHoles(100, 0.02, 0.2, xrand.New(13))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/256))
	if err != nil {
		t.Fatal(err)
	}
	it.Run(0.125)
	if it.Steps <= int64(sys.N) {
		t.Errorf("suspiciously few steps: %d", it.Steps)
	}
}

func TestInteractionsAccounting(t *testing.T) {
	sys := model.Plummer(32, xrand.New(17))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	init := it.Interactions
	if init != 32*32 {
		t.Errorf("init interactions = %d", init)
	}
	s := it.Step()
	if got := it.Interactions - init; got != int64(s.Size)*32 {
		t.Errorf("step interactions = %d, want %d", got, s.Size*32)
	}
}

// TestDirectBackendSameTimeReuse pins what is left of DirectBackend's
// prediction state now that nothing runs behind its back: it is not a
// PredictAheadBackend, two evaluations at one t agree bit for bit (the
// second reuses the prediction), and an Update between two evaluations at
// one t invalidates it — the moved particle is seen, exactly as by a
// backend freshly loaded with the new state.
func TestDirectBackendSameTimeReuse(t *testing.T) {
	if _, ok := Backend(NewDirectBackend()).(PredictAheadBackend); ok {
		t.Error("DirectBackend satisfies PredictAheadBackend")
	}
	sys := model.Plummer(64, xrand.New(5))
	b := NewDirectBackend()
	b.Load(sys)
	const tm, eps = 0x1p-6, 1.0 / 64
	ids := []int{0, 1, 2}
	forces := func(b *DirectBackend) []direct.Force {
		return b.ForcesInto(make([]direct.Force, len(ids)), tm, ids, sys.Pos[:3], sys.Vel[:3], eps)
	}
	first := forces(b)
	if again := forces(b); !slices.Equal(again, first) {
		t.Errorf("second evaluation at one t differs: %v vs %v", again, first)
	}

	sys.Pos[40] = sys.Pos[0].Add(vec.New(0.125, 0, 0))
	b.Update(sys, []int{40})
	moved := forces(b)
	if slices.Equal(moved, first) {
		t.Error("evaluation after Update reused the stale prediction")
	}
	fresh := NewDirectBackend()
	fresh.Load(sys)
	if want := forces(fresh); !slices.Equal(moved, want) {
		t.Errorf("after Update %v, freshly loaded %v", moved, want)
	}
}

func BenchmarkPlummer256Step(b *testing.B) {
	sys := model.Plummer(256, xrand.New(1))
	it, err := New(sys, NewDirectBackend(), DefaultParams(1.0/64))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step()
	}
}
