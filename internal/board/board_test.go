package board

import (
	"math"
	"testing"

	"grape6/internal/chip"
	"grape6/internal/gfixed"
	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func TestDefaultValid(t *testing.T) {
	if err := Default.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	c := Default
	c.ChipsPerModule = 0
	if err := c.Validate(); err == nil {
		t.Error("accepted zero chips per module")
	}
	c = Default
	c.ReduceCyclesPerStage = -1
	if err := c.Validate(); err == nil {
		t.Error("accepted negative reduction latency")
	}
	c = Default
	c.Chip.ClockHz = 0
	if err := c.Validate(); err == nil {
		t.Error("accepted invalid chip config")
	}
}

func TestPackagingCounts(t *testing.T) {
	// Section 2: 8 modules × 4 chips = 32 chips per board.
	if got := Default.ChipsPerBoard(); got != 32 {
		t.Errorf("chips per board = %d, want 32", got)
	}
	if got := Default.TotalChips(); got != 128 {
		t.Errorf("total chips (4 boards) = %d, want 128", got)
	}
}

func TestBoardPeakMatchesPaper(t *testing.T) {
	// One board: 32 chips × 30.78 Gflops = 985 Gflops. Full machine:
	// 64 boards = 2048 chips → 63.04 Tflops (abstract).
	one := Default
	one.Boards = 1
	if got := one.PeakFlops() / 1e9; math.Abs(got-985.0) > 1.0 {
		t.Errorf("board peak = %v Gflops", got)
	}
	full := Default
	full.Boards = 64
	if got := full.PeakFlops() / 1e12; math.Abs(got-63.04) > 0.05 {
		t.Errorf("full machine peak = %v Tflops, paper says 63.04", got)
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

// forces is the tests' allocating convenience wrapper over ForcesInto
// (the retired Array.Forces shape): fresh slab, pointer views into it.
func forces(a *Array, t float64, is []chip.IParticle, eps float64) ([]*chip.Partial, int64) {
	slab := make([]chip.Partial, len(is))
	cycles := a.ForcesInto(slab, t, is, eps)
	out := make([]*chip.Partial, len(is))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out, cycles
}

// singleChipPartials is the reference every striping of the board must
// match bit for bit (the Section 3.4 partition invariance): one chip of cfg,
// its memory widened to the whole of js, evaluating the batch over every
// slot with ForceBatchRangeInto.
func singleChipPartials(t testing.TB, cfg chip.Config, js []chip.JParticle, tm float64, is []chip.IParticle, eps float64) []chip.Partial {
	t.Helper()
	cfg.MemCapacity = max(cfg.MemCapacity, len(js))
	ch := chip.New(cfg)
	if err := ch.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	dst := make([]chip.Partial, len(is))
	ch.ForceBatchRangeInto(dst, tm, is, eps, 0, len(js))
	return dst
}

// smallConfig keeps emulation cheap for functional tests.
func smallConfig() Config {
	c := Default
	c.ChipsPerModule = 2
	c.ModulesPerBoard = 2
	c.Boards = 2 // 8 chips total
	return c
}

func loadPlummer(t testing.TB, a *Array, n int, seed uint64) ([]chip.JParticle, []chip.IParticle) {
	t.Helper()
	sys := model.Plummer(n, xrand.New(seed))
	js := make([]chip.JParticle, n)
	is := make([]chip.IParticle, n)
	f := a.Config().Chip.Format
	for i := 0; i < n; i++ {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
		if err != nil {
			t.Fatal(err)
		}
		js[i] = p
		x, v := chip.PredictParticle(f, &p, 0)
		is[i] = chip.IParticle{X: x, V: v, SelfID: i, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
	}
	if err := a.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	return js, is
}

func TestLoadDistribution(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	js, _ := loadPlummer(t, a, 100, 1)
	if a.NJ() != 100 {
		t.Errorf("NJ = %d", a.NJ())
	}
	// 100 particles over 8 chips: chip c holds load positions
	// [⌊c·100/8⌋, ⌊(c+1)·100/8⌋), 12 or 13 of them, in load order.
	nc := len(a.chips)
	for c, ch := range a.chips {
		lo, hi := c*100/nc, (c+1)*100/nc
		if ch.NJ() != hi-lo {
			t.Fatalf("chip %d holds %d particles, want %d", c, ch.NJ(), hi-lo)
		}
		for k := 0; k < ch.NJ(); k++ {
			if got, want := ch.ID(k), js[lo+k].ID; got != want {
				t.Errorf("chip %d slot %d holds id %d, want %d", c, k, got, want)
			}
		}
	}
}

// TestUpdateJWriteThrough pins UpdateJ's map from a load position to its
// chip and slot: after every particle of the set is rewritten, forces and
// cycles must equal, bit for bit, those of a fresh array loaded with the
// rewritten set. The sizes cover fewer particles than chips, one and one
// more than a particle per chip, a ragged split, the fullest one-page set
// and the smallest multi-page set.
func TestUpdateJWriteThrough(t *testing.T) {
	cfg := pagedConfig(16)
	nc := cfg.TotalChips()
	f := cfg.Chip.Format
	for _, nj := range []int{1, 3, nc, nc + 1, 100, nc * 16, nc*16 + 1} {
		a := New(cfg)
		js, is := loadPlummer(t, a, nj, 11)
		for i := range js {
			js[i].Mass *= 1.5
			js[i].A[1] = f.Round(js[i].A[1] + 0.25)
			if err := a.UpdateJ(js[i]); err != nil {
				t.Fatalf("nj %d: %v", nj, err)
			}
		}
		fresh := New(cfg)
		if err := fresh.LoadJ(js); err != nil {
			t.Fatal(err)
		}
		ni := min(nj, 24)
		got := make([]chip.Partial, ni)
		want := make([]chip.Partial, ni)
		gotCycles := a.ForcesInto(got, 0.0078125, is[:ni], 1.0/64)
		wantCycles := fresh.ForcesInto(want, 0.0078125, is[:ni], 1.0/64)
		if gotCycles != wantCycles {
			t.Errorf("nj %d: %d cycles after the updates, %d on a fresh load", nj, gotCycles, wantCycles)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("nj %d: partial %d after the updates differs from a fresh load", nj, i)
				break
			}
		}
		a.Close()
		fresh.Close()
	}
}

// TestEmptySet: an array loaded with no particles returns, for every
// i-particle, the partial a chip initialises with its exponents, at the
// cost of an empty memory pass plus the reduction latency.
func TestEmptySet(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	if err := a.LoadJ(nil); err != nil {
		t.Fatal(err)
	}
	if a.NJ() != 0 {
		t.Fatalf("NJ = %d after an empty load", a.NJ())
	}
	is := make([]chip.IParticle, 5)
	for i := range is {
		is[i] = chip.IParticle{SelfID: i, ExpAcc: i, ExpJerk: 2 * i, ExpPot: -i}
	}
	dst := make([]chip.Partial, len(is))
	cycles := a.ForcesInto(dst, 0.5, is, 1.0/64)
	f := a.Config().Chip.Format
	for i := range is {
		var want chip.Partial
		want.Init(f, is[i].ExpAcc, is[i].ExpJerk, is[i].ExpPot)
		if dst[i] != want {
			t.Errorf("i=%d: partial %+v, want the initialised %+v", i, dst[i], want)
		}
	}
	if want := a.Config().Chip.BatchCycles(len(is), 0) + a.reductionCycles(); cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestArrayMatchesSingleChip(t *testing.T) {
	// The board hierarchy must produce bit-identical results to one big
	// chip holding the whole j-set.
	n := 96
	eps := 1.0 / 64

	a := New(smallConfig())
	defer a.Close()
	js, is := loadPlummer(t, a, n, 2)
	got, _ := forces(a, 0, is[:8], eps)

	want := singleChipPartials(t, smallConfig().Chip, js, 0, is[:8], eps)

	for i := range got {
		for c := 0; c < 3; c++ {
			if got[i].Acc[c].Sum != want[i].Acc[c].Sum {
				t.Fatalf("i=%d acc[%d]: %d != %d", i, c, got[i].Acc[c].Sum, want[i].Acc[c].Sum)
			}
			if got[i].Jerk[c].Sum != want[i].Jerk[c].Sum {
				t.Fatalf("i=%d jerk[%d] differs", i, c)
			}
		}
		if got[i].Pot.Sum != want[i].Pot.Sum {
			t.Fatalf("i=%d pot differs", i)
		}
		if got[i].NN != want[i].NN {
			t.Fatalf("i=%d NN %d != %d", i, got[i].NN, want[i].NN)
		}
	}
}

func TestDifferentBoardCountsBitIdentical(t *testing.T) {
	// Section 3.4: "it is quite useful to be able to obtain exactly the
	// same results on machines with different sizes."
	n := 64
	eps := 1.0 / 64

	c1 := smallConfig()
	c1.Boards = 1
	a1 := New(c1)
	defer a1.Close()
	_, is := loadPlummer(t, a1, n, 3)
	r1, _ := forces(a1, 0, is[:4], eps)

	c4 := smallConfig()
	c4.Boards = 4
	a4 := New(c4)
	defer a4.Close()
	loadPlummer(t, a4, n, 3)
	r4, _ := forces(a4, 0, is[:4], eps)

	for i := range r1 {
		if r1[i].Acc[0].Sum != r4[i].Acc[0].Sum || r1[i].Pot.Sum != r4[i].Pot.Sum {
			t.Fatalf("i=%d: results differ between 1-board and 4-board machines", i)
		}
	}
}

func TestUpdateJ(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	loadPlummer(t, a, 32, 4)
	f := a.Config().Chip.Format
	p, err := chip.MakeJParticle(f, 7, 0.5, 2.0, vec.New(9, 9, 9), vec.Zero, vec.Zero, vec.Zero, vec.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateJ(p); err != nil {
		t.Fatal(err)
	}
	// Unknown id errors.
	p.ID = 999
	if err := a.UpdateJ(p); err == nil {
		t.Error("UpdateJ accepted unknown particle")
	}
}

func TestUpdateJChangesForce(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	js, is := loadPlummer(t, a, 16, 5)
	before, _ := forces(a, 0, is[:1], 1.0/64)
	accBefore := before[0].Acc[0].Sum

	// Move particle 3 far away; the force must change.
	f := a.Config().Chip.Format
	moved, err := chip.MakeJParticle(f, 3, 0, js[3].Mass, vec.New(100, 100, 100), vec.Zero, vec.Zero, vec.Zero, vec.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateJ(moved); err != nil {
		t.Fatal(err)
	}
	after, _ := forces(a, 0, is[:1], 1.0/64)
	if after[0].Acc[0].Sum == accBefore {
		t.Error("force unchanged after moving a j-particle")
	}
}

func TestCycleModel(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	defer a.Close()
	loadPlummer(t, a, 80, 6) // 10 per chip
	_, cycles := forces(a, 0, make([]chip.IParticle, 1), 0.1)
	// One pass: 8 × 10 + depth, plus reduction stages:
	// log2(2)+log2(2)+log2(2) = 3 stages.
	want := int64(8*10+cfg.Chip.PipelineDepth) + 3*int64(cfg.ReduceCyclesPerStage)
	if cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestTimeFor(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	if got := a.TimeFor(90e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("TimeFor(90e6 cycles @ 90MHz) = %v s", got)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {32, 5},
	}
	for _, c := range cases {
		if got := log2ceil(c.in); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestForcesParallelPathMatchesSerial(t *testing.T) {
	// The pool's striped pass — one i-particle and a batch of 64 — must
	// match a serial single-chip stream over the whole j-set.
	a := New(smallConfig())
	defer a.Close()
	js, is := loadPlummer(t, a, 512, 7)
	eps := 1.0 / 64
	for _, ni := range []int{1, 64} {
		got, _ := forces(a, 0, is[:ni], eps)
		want := singleChipPartials(t, a.Config().Chip, js, 0, is[:ni], eps)
		for i := range got {
			if *got[i] != want[i] {
				t.Fatalf("%d i-particles: i=%d: the pool changed result bits", ni, i)
			}
		}
	}
}

func TestExponentsPreserved(t *testing.T) {
	a := New(smallConfig())
	defer a.Close()
	_, is := loadPlummer(t, a, 16, 8)
	is[0].ExpAcc, is[0].ExpJerk, is[0].ExpPot = 10, 11, 12
	out, _ := forces(a, 0, is[:1], 1.0/64)
	if out[0].Acc[0].Exp != 10 || out[0].Jerk[0].Exp != 11 || out[0].Pot.Exp != 12 {
		t.Errorf("exponents not preserved: %d %d %d",
			out[0].Acc[0].Exp, out[0].Jerk[0].Exp, out[0].Pot.Exp)
	}
	_ = gfixed.Grape6
}

func BenchmarkArrayForces128(b *testing.B) {
	cfg := smallConfig()
	a := New(cfg)
	defer a.Close()
	_, is := loadPlummer(b, a, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forces(a, 0, is[:48], 1.0/64)
	}
}
