package chip

import (
	"math"
	"testing"

	"grape6/internal/direct"
	"grape6/internal/gfixed"
	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := Default.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ClockHz: 0, Pipelines: 6, VMP: 8, Format: gfixed.Grape6, MemCapacity: 16, PipelineDepth: 1},
		{ClockHz: 90e6, Pipelines: 0, VMP: 8, Format: gfixed.Grape6, MemCapacity: 16, PipelineDepth: 1},
		{ClockHz: 90e6, Pipelines: 6, VMP: 0, Format: gfixed.Grape6, MemCapacity: 16, PipelineDepth: 1},
		{ClockHz: 90e6, Pipelines: 6, VMP: 8, Format: gfixed.Grape6, MemCapacity: 0, PipelineDepth: 1},
		{ClockHz: 90e6, Pipelines: 6, VMP: 8, Format: gfixed.Grape6, MemCapacity: 16, PipelineDepth: -1},
		{ClockHz: 90e6, Pipelines: 6, VMP: 8, Format: gfixed.Format{}, MemCapacity: 16, PipelineDepth: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid config", i)
		}
	}
}

func TestPeakFlopsMatchesPaper(t *testing.T) {
	// Section 1: "The GRAPE-6 chip integrates 6 pipelines operating at
	// 90 MHz, offering the speed of 30.8 Gflops."
	got := Default.PeakFlops() / 1e9
	if math.Abs(got-30.78) > 0.01 {
		t.Errorf("chip peak = %v Gflops, paper says 30.8", got)
	}
}

func TestIBatch(t *testing.T) {
	// Section 3.4: "A GRAPE-6 chip integrates six 8-way VMP pipelines.
	// Therefore it calculates the forces on 48 particles in parallel."
	if got := Default.IBatch(); got != 48 {
		t.Errorf("IBatch = %d, want 48", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{})
}

func TestLoadJCapacity(t *testing.T) {
	cfg := Default
	cfg.MemCapacity = 2
	ch := New(cfg)
	if err := ch.LoadJ(make([]JParticle, 3)); err == nil {
		t.Error("LoadJ accepted over-capacity load")
	}
	if err := ch.LoadJ(make([]JParticle, 2)); err != nil {
		t.Errorf("LoadJ rejected in-capacity load: %v", err)
	}
	if ch.NJ() != 2 {
		t.Errorf("NJ = %d", ch.NJ())
	}
}

func TestWriteJBounds(t *testing.T) {
	ch := New(Default)
	if err := ch.LoadJ(make([]JParticle, 4)); err != nil {
		t.Fatal(err)
	}
	if err := ch.WriteJ(4, JParticle{}); err == nil {
		t.Error("WriteJ accepted out-of-range slot")
	}
	if err := ch.WriteJ(-1, JParticle{}); err == nil {
		t.Error("WriteJ accepted negative slot")
	}
	if err := ch.WriteJ(3, JParticle{Mass: 1}); err != nil {
		t.Errorf("WriteJ rejected valid slot: %v", err)
	}
}

// forceBatch is the tests' allocating convenience wrapper over
// ForceBatchInto (the retired Chip.ForceBatch shape): fresh slab, pointer
// views into it.
func forceBatch(ch *Chip, t float64, is []IParticle, eps float64) ([]*Partial, int64) {
	slab := make([]Partial, len(is))
	cycles := ch.ForceBatchInto(slab, t, is, eps)
	out := make([]*Partial, len(is))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out, cycles
}

// makeJ builds a chip particle from float64 state, failing the test on
// range errors.
func makeJ(t *testing.T, id int, t0, m float64, x, v, a, j, s vec.V3) JParticle {
	t.Helper()
	p, err := MakeJParticle(gfixed.Grape6, id, t0, m, x, v, a, j, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func makeI(t *testing.T, id int, x, v vec.V3, expAcc, expJerk, expPot int) IParticle {
	t.Helper()
	f := gfixed.Grape6
	var ip IParticle
	ip.SelfID = id
	xs := [3]float64{x.X, x.Y, x.Z}
	for c := 0; c < 3; c++ {
		q, err := f.ToFixed(xs[c])
		if err != nil {
			t.Fatal(err)
		}
		ip.X[c] = q
	}
	ip.V = roundV3(f, v)
	ip.ExpAcc, ip.ExpJerk, ip.ExpPot = expAcc, expJerk, expPot
	return ip
}

func TestForceMatchesDirectSingle(t *testing.T) {
	// One source of mass 1 at distance 2: a = 1/4, pot = -1/2.
	ch := New(Default)
	err := ch.LoadJ([]JParticle{makeJ(t, 1, 0, 1, vec.New(2, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero)})
	if err != nil {
		t.Fatal(err)
	}
	is := []IParticle{makeI(t, 0, vec.Zero, vec.Zero, 4, 4, 4)}
	ps, cycles := forceBatch(ch, 0, is, 0)
	acc, _, pot := PartialValues(ps[0])
	if math.Abs(acc.X-0.25) > 1e-6 {
		t.Errorf("acc = %v", acc)
	}
	if math.Abs(pot+0.5) > 1e-6 {
		t.Errorf("pot = %v", pot)
	}
	if cycles <= 0 {
		t.Errorf("cycles = %d", cycles)
	}
	if ps[0].NN != 1 {
		t.Errorf("NN = %d", ps[0].NN)
	}
}

func TestForceAccuracyVsReference(t *testing.T) {
	// Chip arithmetic (24-bit mantissa) must agree with the float64
	// reference to ~1e-5 relative on a realistic configuration.
	rng := xrand.New(3)
	sys := model.Plummer(256, rng)
	eps := 1.0 / 64

	ch := New(Default)
	js := make([]JParticle, sys.N)
	for i := 0; i < sys.N; i++ {
		js[i] = makeJ(t, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
	}
	if err := ch.LoadJ(js); err != nil {
		t.Fatal(err)
	}

	ref := direct.JSet{Mass: sys.Mass, Pos: sys.Pos, Vel: sys.Vel}
	var maxRelA, maxRelP float64
	for i := 0; i < 32; i++ {
		ip := makeI(t, i, sys.Pos[i], sys.Vel[i], 4, 6, 6)
		ps, _ := forceBatch(ch, 0, []IParticle{ip}, eps)
		acc, _, pot := PartialValues(ps[0])
		want := direct.EvalSkip(sys.Pos[i], sys.Vel[i], ref, eps, i)
		// Chip includes self-interaction: pot has an extra -m/eps.
		pot += sys.Mass[i] / eps
		relA := acc.Dist(want.Acc) / want.Acc.Norm()
		relP := math.Abs(pot-want.Pot) / math.Abs(want.Pot)
		if relA > maxRelA {
			maxRelA = relA
		}
		if relP > maxRelP {
			maxRelP = relP
		}
	}
	if maxRelA > 3e-5 {
		t.Errorf("max relative acceleration error %v too large", maxRelA)
	}
	if maxRelP > 3e-5 {
		t.Errorf("max relative potential error %v too large", maxRelP)
	}
}

func TestSelfInteractionExactlyZero(t *testing.T) {
	// When the host predicts the i-particle through PredictParticle, the
	// self-pair's coordinate difference is exactly zero: the acceleration
	// contribution vanishes and the potential contribution is exactly
	// -round(m·round(1/ε)).
	f := gfixed.Grape6
	j := makeJ(t, 0, 0, 0.25,
		vec.New(0.1, -0.2, 0.3), vec.New(0.4, 0.5, -0.6),
		vec.New(0.01, 0.02, 0.03), vec.New(0.001, 0.002, 0.003), vec.New(1e-4, 2e-4, 3e-4))
	ch := New(Default)
	if err := ch.LoadJ([]JParticle{j}); err != nil {
		t.Fatal(err)
	}

	tNow := 0.0078125
	x, v := PredictParticle(f, &j, tNow)
	ip := IParticle{X: x, V: v, SelfID: 0, ExpAcc: 4, ExpJerk: 4, ExpPot: 4}
	ps, _ := forceBatch(ch, tNow, []IParticle{ip}, 1.0/64)
	acc, jerk, pot := PartialValues(ps[0])
	if acc != vec.Zero || jerk != vec.Zero {
		t.Errorf("self-pair force not exactly zero: a=%v j=%v", acc, jerk)
	}
	wantPot := -f.Round(f.Round(0.25) * f.Round(1/math.Sqrt(f.Round(1.0/64*(1.0/64)))))
	if math.Abs(pot-wantPot) > math.Ldexp(1, ps[0].Pot.Exp-int(f.AccumFrac)) {
		t.Errorf("self potential = %v, want ≈ %v", pot, wantPot)
	}
	if ps[0].NN != -1 {
		t.Errorf("NN should exclude self, got %d", ps[0].NN)
	}
}

func TestPartitionInvarianceAcrossChips(t *testing.T) {
	// Section 3.4's headline property: the summed force is bit-identical
	// whether the j-set lives on one chip or is split across many.
	rng := xrand.New(5)
	sys := model.Plummer(128, rng)
	eps := 1.0 / 64
	mkJS := func() []JParticle {
		js := make([]JParticle, sys.N)
		for i := 0; i < sys.N; i++ {
			js[i] = makeJ(t, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
		}
		return js
	}
	ip := makeI(t, 0, sys.Pos[0], sys.Vel[0], 4, 6, 6)

	single := New(Default)
	if err := single.LoadJ(mkJS()); err != nil {
		t.Fatal(err)
	}
	ps, _ := forceBatch(single, 0, []IParticle{ip}, eps)
	ref := ps[0]

	for _, parts := range []int{2, 4, 32} {
		chips := make([]*Chip, parts)
		buckets := make([][]JParticle, parts)
		for i, j := range mkJS() {
			buckets[i%parts] = append(buckets[i%parts], j)
		}
		var merged Partial
		merged.Init(gfixed.Grape6, 4, 6, 6)
		for c := 0; c < parts; c++ {
			chips[c] = New(Default)
			if err := chips[c].LoadJ(buckets[c]); err != nil {
				t.Fatal(err)
			}
			pp, _ := forceBatch(chips[c], 0, []IParticle{ip}, eps)
			merged.Merge(pp[0])
		}
		for c := 0; c < 3; c++ {
			if merged.Acc[c].Sum != ref.Acc[c].Sum {
				t.Errorf("%d-way split: acc[%d] bits differ", parts, c)
			}
			if merged.Jerk[c].Sum != ref.Jerk[c].Sum {
				t.Errorf("%d-way split: jerk[%d] bits differ", parts, c)
			}
		}
		if merged.Pot.Sum != ref.Pot.Sum {
			t.Errorf("%d-way split: pot bits differ", parts)
		}
		if merged.NN != ref.NN {
			t.Errorf("%d-way split: NN %d != %d", parts, merged.NN, ref.NN)
		}
	}
}

func TestOverflowSignalsRetry(t *testing.T) {
	// A block exponent far too small must set the overflow flag — the
	// hardware's request for the host to retry with a better guess
	// (Section 3.4: "we sometimes need to repeat the force calculation").
	ch := New(Default)
	err := ch.LoadJ([]JParticle{makeJ(t, 1, 0, 1e6, vec.New(1e-3, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero)})
	if err != nil {
		t.Fatal(err)
	}
	ip := makeI(t, 0, vec.Zero, vec.Zero, -40, -40, -40)
	ps, _ := forceBatch(ch, 0, []IParticle{ip}, 0)
	if !ps[0].Overflowed() {
		t.Error("huge force with tiny exponent did not overflow")
	}
}

func TestCycleAccounting(t *testing.T) {
	ch := New(Default)
	if err := ch.LoadJ(make([]JParticle, 100)); err != nil {
		t.Fatal(err)
	}
	// 1 i-particle: one pass → 8×100 + depth cycles.
	_, cyc1 := forceBatch(ch, 0, make([]IParticle, 1), 0.1)
	want1 := int64(8*100 + Default.PipelineDepth)
	if cyc1 != want1 {
		t.Errorf("1 i: cycles = %d, want %d", cyc1, want1)
	}
	// 48 i-particles: still one pass.
	_, cyc48 := forceBatch(ch, 0, make([]IParticle, 48), 0.1)
	if cyc48 != want1 {
		t.Errorf("48 i: cycles = %d, want %d", cyc48, want1)
	}
	// 49 i-particles: two passes.
	_, cyc49 := forceBatch(ch, 0, make([]IParticle, 49), 0.1)
	if cyc49 != 2*want1 {
		t.Errorf("49 i: cycles = %d, want %d", cyc49, 2*want1)
	}
}

func TestPredictorMovesParticles(t *testing.T) {
	// A particle with pure velocity moves linearly under prediction.
	f := gfixed.Grape6
	j := makeJ(t, 0, 0, 1, vec.New(1, 0, 0), vec.New(0.5, 0, 0), vec.Zero, vec.Zero, vec.Zero)
	x, v := PredictParticle(f, &j, 2.0)
	got := f.FromFixed(x[0])
	if math.Abs(got-2.0) > 1e-6 {
		t.Errorf("predicted x = %v, want 2", got)
	}
	if math.Abs(v[0]-0.5) > 1e-7 {
		t.Errorf("predicted v = %v", v[0])
	}
}

func TestPredictorAccuracyVsFloat64(t *testing.T) {
	// Chip predictor vs full-precision polynomial: error bounded by the
	// pipeline mantissa width on a representative state.
	f := gfixed.Grape6
	j := makeJ(t, 0, 0, 1,
		vec.New(0.3, -0.4, 0.5), vec.New(-0.2, 0.6, 0.1),
		vec.New(1.0, -2.0, 0.5), vec.New(3.0, 1.0, -2.0), vec.New(-5.0, 2.0, 8.0))
	dt := 1.0 / 256
	x, v := PredictParticle(f, &j, dt)

	// Full precision.
	wantX := 0.3 + dt*(-0.2+dt/2*(1.0+dt/3*(3.0+dt/4*(-5.0))))
	wantV := -0.2 + dt*(1.0+dt/2*(3.0+dt/3*(-5.0)))
	if math.Abs(f.FromFixed(x[0])-wantX) > 1e-7 {
		t.Errorf("predicted x = %v, want %v", f.FromFixed(x[0]), wantX)
	}
	if math.Abs(v[0]-wantV) > 1e-7 {
		t.Errorf("predicted v = %v, want %v", v[0], wantV)
	}
}

func TestPredictCache(t *testing.T) {
	ch := New(Default)
	j := makeJ(t, 0, 0, 1, vec.New(1, 0, 0), vec.New(1, 0, 0), vec.Zero, vec.Zero, vec.Zero)
	if err := ch.LoadJ([]JParticle{j}); err != nil {
		t.Fatal(err)
	}
	ch.Predict(1.0)
	x1 := ch.px[0][0]
	ch.Predict(1.0) // cached, same result
	if ch.px[0][0] != x1 {
		t.Error("cached prediction changed")
	}
	// Writing invalidates the cache.
	j2 := makeJ(t, 0, 0, 1, vec.New(5, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero)
	if err := ch.WriteJ(0, j2); err != nil {
		t.Fatal(err)
	}
	ch.Predict(1.0)
	if ch.px[0][0] == x1 {
		t.Error("prediction not refreshed after WriteJ")
	}
}

func TestMakeJParticleRangeError(t *testing.T) {
	_, err := MakeJParticle(gfixed.Grape6, 0, 0, 1, vec.New(1e30, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero)
	if err == nil {
		t.Error("accepted out-of-range position")
	}
}

func TestNearestNeighbour(t *testing.T) {
	ch := New(Default)
	js := []JParticle{
		makeJ(t, 10, 0, 1, vec.New(3, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero),
		makeJ(t, 20, 0, 1, vec.New(1, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero),
		makeJ(t, 30, 0, 1, vec.New(2, 0, 0), vec.Zero, vec.Zero, vec.Zero, vec.Zero),
	}
	if err := ch.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	ip := makeI(t, 99, vec.Zero, vec.Zero, 4, 4, 4)
	ps, _ := forceBatch(ch, 0, []IParticle{ip}, 0.1)
	if ps[0].NN != 20 {
		t.Errorf("NN = %d, want 20", ps[0].NN)
	}
}

func BenchmarkForceBatch48x1024(b *testing.B) {
	rng := xrand.New(1)
	sys := model.Plummer(1024, rng)
	ch := New(Default)
	js := make([]JParticle, sys.N)
	for i := 0; i < sys.N; i++ {
		p, err := MakeJParticle(gfixed.Grape6, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
		if err != nil {
			b.Fatal(err)
		}
		js[i] = p
	}
	if err := ch.LoadJ(js); err != nil {
		b.Fatal(err)
	}
	is := make([]IParticle, 48)
	f := gfixed.Grape6
	for k := range is {
		var ip IParticle
		for c, x := range [3]float64{sys.Pos[k].X, sys.Pos[k].Y, sys.Pos[k].Z} {
			q, _ := f.ToFixed(x)
			ip.X[c] = q
		}
		ip.SelfID = k
		ip.ExpAcc, ip.ExpJerk, ip.ExpPot = 4, 6, 6
		is[k] = ip
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forceBatch(ch, 0, is, 1.0/64)
	}
}
