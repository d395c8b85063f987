package board_test

import (
	"math"
	"testing"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/forcecheck"
	"grape6/internal/vec"
)

func TestDefaultValid(t *testing.T) {
	if err := board.Default.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	c := board.Default
	c.ChipsPerModule = 0
	if err := c.Validate(); err == nil {
		t.Error("accepted zero chips per module")
	}
	c = board.Default
	c.ReduceCyclesPerStage = -1
	if err := c.Validate(); err == nil {
		t.Error("accepted negative reduction latency")
	}
	c = board.Default
	c.Chip.ClockHz = 0
	if err := c.Validate(); err == nil {
		t.Error("accepted invalid chip config")
	}
}

func TestPackagingCounts(t *testing.T) {
	// Section 2: 8 modules × 4 chips = 32 chips per board.
	if got := board.Default.ChipsPerBoard(); got != 32 {
		t.Errorf("chips per board = %d, want 32", got)
	}
	if got := board.Default.TotalChips(); got != 128 {
		t.Errorf("total chips (4 boards) = %d, want 128", got)
	}
}

func TestBoardPeakMatchesPaper(t *testing.T) {
	// One board: 32 chips × 30.78 Gflops = 985 Gflops. Full machine:
	// 64 boards = 2048 chips → 63.04 Tflops (abstract).
	one := board.Default
	one.Boards = 1
	if got := one.PeakFlops() / 1e9; math.Abs(got-985.0) > 1.0 {
		t.Errorf("board peak = %v Gflops", got)
	}
	full := board.Default
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
	board.New(board.Config{})
}

// small is an array of forcecheck.SmallHW, closed when the test ends.
func small(t testing.TB) *board.Array {
	a := board.New(forcecheck.SmallHW())
	t.Cleanup(a.Close)
	return a
}

func TestLoadDistribution(t *testing.T) {
	a := small(t)
	js, _ := forcecheck.LoadPlummer(t, a, 100, 1)
	if a.NJ() != 100 {
		t.Errorf("NJ = %d", a.NJ())
	}
	// 100 particles over 8 chips: chip c holds load positions
	// [⌊c·100/8⌋, ⌊(c+1)·100/8⌋), 12 or 13 of them, in load order.
	chips := board.Chips(a)
	nc := len(chips)
	for c, ch := range chips {
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

// TestEmptySet: an array loaded with no particles returns, for every
// i-particle, the partial a chip initialises with its exponents, at the
// cost of an empty memory pass plus the reduction latency.
func TestEmptySet(t *testing.T) {
	a := small(t)
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
	if want := a.Config().Chip.BatchCycles(len(is), 0) + board.ReductionCycles(a); cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestUpdateJ(t *testing.T) {
	a := small(t)
	forcecheck.LoadPlummer(t, a, 32, 4)
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

func TestCycleModel(t *testing.T) {
	a := small(t)
	cfg := a.Config()
	forcecheck.LoadPlummer(t, a, 80, 6) // 10 per chip
	cycles := a.ForcesInto(make([]chip.Partial, 1), 0, make([]chip.IParticle, 1), 0.1)
	// One pass: 8 × 10 + depth, plus reduction stages:
	// log2(2)+log2(2)+log2(2) = 3 stages.
	want := int64(8*10+cfg.Chip.PipelineDepth) + 3*int64(cfg.ReduceCyclesPerStage)
	if cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestTimeFor(t *testing.T) {
	a := small(t)
	if got := a.TimeFor(90e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("TimeFor(90e6 cycles @ 90MHz) = %v s", got)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {32, 5},
	}
	for _, c := range cases {
		if got := board.Log2Ceil(c.in); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestExponentsPreserved(t *testing.T) {
	a := small(t)
	_, is := forcecheck.LoadPlummer(t, a, 16, 8)
	is[0].ExpAcc, is[0].ExpJerk, is[0].ExpPot = 10, 11, 12
	var out [1]chip.Partial
	a.ForcesInto(out[:], 0, is[:1], 1.0/64)
	if out[0].Acc[0].Exp != 10 || out[0].Jerk[0].Exp != 11 || out[0].Pot.Exp != 12 {
		t.Errorf("exponents not preserved: %d %d %d",
			out[0].Acc[0].Exp, out[0].Jerk[0].Exp, out[0].Pot.Exp)
	}
}

func BenchmarkArrayForces128(b *testing.B) {
	a := small(b)
	_, is := forcecheck.LoadPlummer(b, a, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ForcesInto(make([]chip.Partial, 48), 0, is[:48], 1.0/64)
	}
}
