package gbackend

import (
	"math"
	"runtime"
	"testing"

	"grape6/internal/board"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/units"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// tinyArray is a small hardware configuration for cheap functional tests.
func tinyArray() *board.Array {
	cfg := board.Default
	cfg.ChipsPerModule = 2
	cfg.ModulesPerBoard = 2
	cfg.Boards = 1
	return board.New(cfg)
}

func TestImplementsBackend(t *testing.T) {
	var _ hermite.Backend = New(tinyArray())
}

func TestForcesMatchDirectBackend(t *testing.T) {
	sys := model.Plummer(96, xrand.New(1))
	eps := 1.0 / 64

	gb := New(tinyArray())
	gb.Load(sys)
	db := hermite.NewDirectBackend()
	db.Load(sys)

	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i
	}
	fg := gb.ForcesInto(make([]direct.Force, 16), 0, ids, sys.Pos[:16], sys.Vel[:16], eps)
	fd := db.ForcesInto(make([]direct.Force, 16), 0, ids, sys.Pos[:16], sys.Vel[:16], eps)

	for i := range ids {
		relA := fg[i].Acc.Dist(fd[i].Acc) / fd[i].Acc.Norm()
		if relA > 1e-4 {
			t.Errorf("i=%d acc relative error %v", i, relA)
		}
		// GRAPE includes self-potential -m/eps; the direct backend with
		// eps>0 includes it too (skip == -1 semantics differ)... both
		// include it, so compare directly.
		relP := math.Abs(fg[i].Pot-fd[i].Pot) / math.Abs(fd[i].Pot)
		if relP > 1e-4 {
			t.Errorf("i=%d pot relative error %v", i, relP)
		}
	}
	if gb.HWCycles <= 0 {
		t.Error("no hardware cycles recorded")
	}
}

func TestOverflowRetryConverges(t *testing.T) {
	// Fresh system: default exponents may be wrong for extreme masses;
	// the retry loop must converge and give correct forces.
	sys := nbody.New(2)
	sys.Mass[0], sys.Mass[1] = 1e9, 1e9
	sys.Pos[0] = vec.New(-0.5, 0, 0)
	sys.Pos[1] = vec.New(0.5, 0, 0)

	gb := New(tinyArray())
	gb.Load(sys)
	fs := gb.ForcesInto(make([]direct.Force, 2), 0, []int{0, 1}, sys.Pos, sys.Vel, 0.01)
	// a on 0 from 1: m/(r²+ε²)^{3/2} with r=1, ε=0.01.
	want := 1e9 / math.Pow(1.0001, 1.5)
	if math.Abs(fs[0].Acc.X-want)/want > 1e-5 {
		t.Errorf("acc after retries = %v, want %v", fs[0].Acc, want)
	}
	if gb.Retries == 0 {
		t.Error("expected at least one overflow retry for extreme masses")
	}
}

func TestIntegrationMatchesDirect(t *testing.T) {
	// Full Hermite integration on the emulated hardware must track the
	// float64 reference closely over a short run.
	mk := func() *nbody.System { return model.Plummer(64, xrand.New(9)) }
	eps := 1.0 / 64
	p := hermite.DefaultParams(eps)

	sd := mk()
	itD, err := hermite.New(sd, hermite.NewDirectBackend(), p)
	if err != nil {
		t.Fatal(err)
	}
	itD.Run(0.125)

	sg := mk()
	itG, err := hermite.New(sg, New(tinyArray()), p)
	if err != nil {
		t.Fatal(err)
	}
	itG.Run(0.125)

	var maxDev float64
	for i := 0; i < sd.N; i++ {
		if d := sd.Pos[i].Dist(sg.Pos[i]); d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 1e-3 {
		t.Errorf("max position deviation from reference = %v", maxDev)
	}
}

func TestEnergyConservationOnHardware(t *testing.T) {
	sys := model.Plummer(64, xrand.New(5))
	eps := 1.0 / 64
	it, err := hermite.New(sys, New(tinyArray()), hermite.DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	e0 := it.Energy()
	it.Run(0.25)
	e1 := it.Energy()
	if rel := math.Abs((e1 - e0) / e0); rel > 1e-4 {
		t.Errorf("energy error on emulated hardware = %v", rel)
	}
}

func TestMachineSizeIndependentTrajectories(t *testing.T) {
	// The paper's validation property, end to end: integrating the same
	// system on hardware of different sizes gives BIT-IDENTICAL
	// trajectories, because block-floating-point summation is exact.
	run := func(boards int) *nbody.System {
		cfg := board.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = boards
		sys := model.Plummer(48, xrand.New(21))
		it, err := hermite.New(sys, New(board.New(cfg)), hermite.DefaultParams(1.0/64))
		if err != nil {
			t.Fatal(err)
		}
		it.Run(0.125)
		return sys
	}
	a := run(1)
	b := run(4)
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatalf("particle %d differs between 1-board and 4-board machines: %v vs %v",
				i, a.Pos[i], b.Pos[i])
		}
	}
}

func TestRangeClampingSurvivesEscapers(t *testing.T) {
	sys := nbody.New(2)
	sys.Mass[0], sys.Mass[1] = 0.5, 0.5
	sys.Pos[0] = vec.New(1e7, 0, 0) // beyond the 2^19 coordinate range
	sys.Pos[1] = vec.New(0, 0, 0)
	gb := New(tinyArray())
	gb.Load(sys)
	if gb.RangeClamps == 0 {
		t.Error("escaper was not clamped")
	}
	// Forces must still be finite.
	fs := gb.ForcesInto(make([]direct.Force, 1), 0, []int{1}, sys.Pos[1:], sys.Vel[1:], 0.01)
	if !fs[0].Acc.IsFinite() {
		t.Errorf("non-finite force near clamped escaper: %v", fs[0].Acc)
	}
}

func TestOutOfRangeSlotPanics(t *testing.T) {
	sys := model.Plummer(8, xrand.New(2))
	gb := New(tinyArray())
	defer gb.Close()
	gb.Load(sys)
	defer func() {
		if recover() == nil {
			t.Error("slot 8 of an 8-particle system did not panic")
		}
	}()
	gb.ForcesInto(make([]direct.Force, 1), 0, []int{8}, sys.Pos[:1], sys.Vel[:1], 0.01)
}

// TestNilSlotsPanics: the backend predicts i-particles from its own
// image, so a non-empty batch of visitors (nil slots) is a caller error;
// an empty one is no work.
func TestNilSlotsPanics(t *testing.T) {
	sys := model.Plummer(8, xrand.New(2))
	gb := New(tinyArray())
	defer gb.Close()
	gb.Load(sys)
	if fs := gb.ForcesInto(nil, 0, nil, nil, nil, 0.01); len(fs) != 0 {
		t.Errorf("empty batch returned %d forces", len(fs))
	}
	defer func() {
		if recover() == nil {
			t.Error("nil slots with one i-particle did not panic")
		}
	}()
	gb.ForcesInto(make([]direct.Force, 1), 0, nil, sys.Pos[:1], sys.Vel[:1], 0.01)
}

func TestHWCyclesGrowWithWork(t *testing.T) {
	sys := model.Plummer(128, xrand.New(3))
	gb := New(tinyArray())
	gb.Load(sys)
	ids := []int{0}
	dst := make([]direct.Force, 1)
	gb.ForcesInto(dst, 0, ids, sys.Pos[:1], sys.Vel[:1], 0.01)
	c1 := gb.HWCycles
	gb.ForcesInto(dst, 0, ids, sys.Pos[:1], sys.Vel[:1], 0.01)
	if gb.HWCycles <= c1 {
		t.Error("cycles did not accumulate")
	}
}

func TestSpeedAccountingPlausible(t *testing.T) {
	// Sanity-check the cycle model: the effective pairwise rate of the
	// tiny 4-chip array on a saturating workload should be within a factor
	// of a few of its nominal 4 chips × 6 pipelines = 24 pairs/cycle.
	sys := model.Plummer(512, xrand.New(4))
	gb := New(tinyArray())
	gb.Load(sys)
	ids := make([]int, 48)
	for i := range ids {
		ids[i] = i
	}
	gb.HWCycles = 0
	gb.ForcesInto(make([]direct.Force, 48), 0, ids, sys.Pos[:48], sys.Vel[:48], 1.0/64)
	pairs := float64(48 * 512)
	perCycle := pairs / float64(gb.HWCycles)
	if perCycle < 10 || perCycle > 24 {
		t.Errorf("pairs per cycle = %v, want within (10, 24]", perCycle)
	}
	_ = units.FlopsPerInteraction
}

func TestIntegrationTileInvariant(t *testing.T) {
	// How the pool cuts and shares the j-memory is invisible end to end: a
	// full Hermite integration on the emulated hardware is bit-identical,
	// down to the last position bit, at every GOMAXPROCS — the width of
	// the board's pool, one worker at 1.
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	eps := 1.0 / 64
	run := func(procs int) *nbody.System {
		runtime.GOMAXPROCS(procs)
		sys := model.Plummer(256, xrand.New(9))
		cfg := board.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = 1
		arr := board.New(cfg)
		defer arr.Close()
		it, err := hermite.New(sys, New(arr), hermite.DefaultParams(eps))
		if err != nil {
			t.Fatal(err)
		}
		it.Run(0.0625)
		return sys
	}
	want := run(1)
	for _, procs := range []int{2, 3, 8} {
		got := run(procs)
		for i := 0; i < want.N; i++ {
			if want.Pos[i] != got.Pos[i] || want.Vel[i] != got.Vel[i] {
				t.Fatalf("particle %d state differs between GOMAXPROCS 1 and %d", i, procs)
			}
		}
	}
}
