// The paper-claim guard: what Figs. 13-19, the cosim sweep, the tables,
// the ablations and the validation run must show whatever the pins say —
// crossovers, the 1/N regime, the tuning gain — so that a careless
// -update cannot re-pin a claim away. The checks read the pins
// themselves: TestAllRuns and internal/scenario's
// TestCommittedBaselineDiffsClean hold every run to its pin, so a claim
// the pin keeps is a claim the run keeps, and no figure is made twice.
// The pins are read with scenario, which imports bench, hence the
// external test package.
package bench_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"grape6/internal/bench"
	"grape6/internal/scenario"
)

// quickFigure returns experiment id's committed quick-fidelity figure.
func quickFigure(t *testing.T, id string) bench.Figure {
	t.Helper()
	fig, err := scenario.LoadBaseline(pinDir, id, "quick")
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestF13ShapeMatchesPaper(t *testing.T) {
	e := quickFigure(t, "f13")
	if len(e.Series) != 3 {
		t.Fatalf("want 3 softening series, got %d", len(e.Series))
	}
	// Speed grows with N and exceeds 1 Tflops at N=2e5... our grid uses
	// 1e5 and 3e5; check 3e5 > 1000 Gflops for the constant softening.
	s := e.Series[0]
	v3e5, ok := s.ValueAt(300000)
	if !ok {
		t.Fatal("missing N=3e5 point")
	}
	if v3e5 < 1000 {
		t.Errorf("speed at 3e5 = %v Gflops, paper shows >1 Tflops region", v3e5)
	}
	// Monotone increase over the model range.
	v1e3, _ := s.ValueAt(1000)
	if v1e3 >= v3e5 {
		t.Error("speed not increasing with N")
	}
	// Softening choices give similar speeds at equal N (paper: "practically
	// independent of the choice of the softening") — within a factor 3.
	for _, other := range e.Series[1:] {
		vo, ok := other.ValueAt(300000)
		if !ok {
			t.Fatal("missing point in softening series")
		}
		if r := vo / v3e5; r < 0.33 || r > 3 {
			t.Errorf("softening changed speed by %vx at N=3e5", r)
		}
	}
}

func TestF14ModelsOrdered(t *testing.T) {
	e := quickFigure(t, "f14")
	dashed := e.FindSeries("model: constant T_host")
	dotted := e.FindSeries("model: cache-aware T_host")
	if dashed == nil || dotted == nil {
		t.Fatal("missing model series")
	}
	// The cache-aware model is cheaper at small N, converging at large N.
	d1, _ := dashed.ValueAt(1000)
	c1, _ := dotted.ValueAt(1000)
	if c1 >= d1 {
		t.Errorf("cache-aware model not cheaper at small N: %v vs %v", c1, d1)
	}
	dBig, _ := dashed.ValueAt(1000000)
	cBig, _ := dotted.ValueAt(1000000)
	if math.Abs(cBig-dBig)/dBig > 0.2 {
		t.Errorf("models do not converge at large N: %v vs %v", cBig, dBig)
	}
}

func TestF15CrossoverExists(t *testing.T) {
	e := quickFigure(t, "f15")
	one := e.FindSeries("1-node, eps=1/64")
	two := e.FindSeries("2-node, eps=1/64")
	if one == nil || two == nil {
		t.Fatalf("missing series; have %v", bench.Labels(e))
	}
	// 2-node slower at N=1e3, faster at N=1e5.
	o1, _ := one.ValueAt(1000)
	t1, _ := two.ValueAt(1000)
	if t1 >= o1 {
		t.Errorf("2-node already faster at N=1e3: %v vs %v", t1, o1)
	}
	o2, _ := one.ValueAt(100000)
	t2, _ := two.ValueAt(100000)
	if t2 <= o2 {
		t.Errorf("2-node not faster at N=1e5: %v vs %v", t2, o2)
	}
}

func TestF15SofteningMovesCrossover(t *testing.T) {
	e := quickFigure(t, "f15")
	// Paper: the 1→2 node crossover moves from N~3e3 (constant softening)
	// to N~3e4 (eps=4/N). The robust property is relational: the smaller
	// softening's crossover must NOT sit at lower N than the constant
	// softening's, and both crossovers must exist within the N range.
	crossover := func(kind string) int {
		one := e.FindSeries("1-node, " + kind)
		two := e.FindSeries("2-node, " + kind)
		if one == nil || two == nil {
			t.Fatalf("missing series for %s; have %v", kind, bench.Labels(e))
		}
		pts := append([]bench.Point(nil), one.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
		for _, p := range pts {
			v2, ok := two.ValueAt(p.N)
			if ok && v2 > p.Value {
				return p.N
			}
		}
		return 1 << 30
	}
	cConst := crossover("eps=1/64")
	cOverN := crossover("eps=4/N")
	if cConst >= 1<<30 || cOverN >= 1<<30 {
		t.Fatalf("no crossover found: const=%d 4/N=%d", cConst, cOverN)
	}
	if cOverN < cConst {
		t.Errorf("eps=4/N crossover N=%d below constant-softening crossover N=%d", cOverN, cConst)
	}
}

func TestF16OneOverNRegime(t *testing.T) {
	e := quickFigure(t, "f16")
	m := e.FindSeries("model incl. synchronization")
	if m == nil {
		t.Fatal("missing model series")
	}
	// time/step at N=1e3 ≈ 2-4x the value at N=3e3 (1/N scaling, with
	// block-size fit wobble).
	a, _ := m.ValueAt(1000)
	b, _ := m.ValueAt(3000)
	ratio := a / b
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("small-N scaling ratio = %v, want ≈3 (1/N)", ratio)
	}
}

func TestF17ClusterCrossover(t *testing.T) {
	e := quickFigure(t, "f17")
	four := e.FindSeries("4-node (1 cluster)")
	sixteen := e.FindSeries("16-node (4 clusters)")
	if four == nil || sixteen == nil {
		t.Fatalf("missing series; have %v", bench.Labels(e))
	}
	a4, _ := four.ValueAt(10000)
	a16, _ := sixteen.ValueAt(10000)
	if a16 >= a4 {
		t.Errorf("16-node already faster at N=1e4: %v vs %v", a16, a4)
	}
	b4, _ := four.ValueAt(1000000)
	b16, _ := sixteen.ValueAt(1000000)
	if b16 <= b4 {
		t.Errorf("16-node not faster at N=1e6: %v vs %v", b16, b4)
	}
	// Speedup significantly below ideal 4x (paper: "significantly smaller
	// than the ideal speedup").
	if sp := b16 / b4; sp >= 4 {
		t.Errorf("speedup at 1e6 = %v, should be below ideal 4", sp)
	}
}

func TestF18SyncDominatedSmallN(t *testing.T) {
	e := quickFigure(t, "f18")
	m := e.FindSeries("model incl. cluster exchange")
	if m == nil {
		t.Fatal("missing series")
	}
	a, _ := m.ValueAt(10000)
	b, _ := m.ValueAt(30000)
	if ratio := a / b; ratio < 1.5 {
		t.Errorf("16-node small-N scaling ratio = %v, want ≈3", ratio)
	}
}

func TestF19TuningImprovement(t *testing.T) {
	e := quickFigure(t, "f19")
	old := e.FindSeries("NS83820 + Athlon")
	tuned := e.FindSeries("Intel82540EM + P4")
	if old == nil || tuned == nil {
		t.Fatal("missing series")
	}
	// Improvement 30-150% somewhere in the mid range, shrinking at high N.
	oMid, _ := old.ValueAt(100000)
	tMid, _ := tuned.ValueAt(100000)
	gainMid := tMid / oMid
	if gainMid < 1.2 || gainMid > 2.6 {
		t.Errorf("tuning gain at 1e5 = %v, paper: 1.5-2", gainMid)
	}
	oBig, _ := old.ValueAt(1000000)
	tBig, _ := tuned.ValueAt(1000000)
	if gainBig := tBig / oBig; gainBig >= gainMid {
		t.Errorf("gain did not shrink with N: %v vs %v", gainBig, gainMid)
	}
	// Headline note present.
	found := false
	for _, n := range e.Notes {
		if strings.Contains(n, "N=1.8M") {
			found = true
		}
	}
	if !found {
		t.Error("missing 1.8M headline note")
	}
}

func TestAblationMyrinetHelps(t *testing.T) {
	e := quickFigure(t, "a4")
	ns := e.FindSeries("NS83820 (TCP/IP)")
	my := e.FindSeries("Myrinet-class")
	if ns == nil || my == nil {
		t.Fatalf("missing series; have %v", bench.Labels(e))
	}
	a, _ := ns.ValueAt(100000)
	b, _ := my.ValueAt(100000)
	if b <= a {
		t.Errorf("Myrinet not faster at N=1e5: %v vs %v", b, a)
	}
}

func TestAblationKernelBypassOrdering(t *testing.T) {
	e := quickFigure(t, "a4")
	ns := e.FindSeries("NS83820 (TCP/IP)")
	kb := e.FindSeries("NS83820 + GAMMA/VIA (kernel bypass)")
	my := e.FindSeries("Myrinet-class")
	if ns == nil || kb == nil || my == nil {
		t.Fatalf("missing series; have %v", bench.Labels(e))
	}
	n := 100000
	a, _ := ns.ValueAt(n)
	b, _ := kb.ValueAt(n)
	c, _ := my.ValueAt(n)
	if !(a < b && b < c) {
		t.Errorf("ordering at N=1e5: tcp %v, bypass %v, myrinet %v", a, b, c)
	}
}

func TestCosimSmallNSlowdown(t *testing.T) {
	e := quickFigure(t, "cosim")
	cp := e.FindSeries("copy algorithm")
	if cp == nil {
		t.Fatal("missing copy series")
	}
	r1, _ := cp.ValueAt(1)
	r4, _ := cp.ValueAt(4)
	if r4 >= r1 {
		t.Errorf("copy: 4 hosts (%v steps/s) not slower than 1 host (%v) at small N", r4, r1)
	}
}

func TestCosimHybridSlowdown(t *testing.T) {
	e := quickFigure(t, "cosim")
	hy := e.FindSeries("hybrid (clusters x 2D grid)")
	if hy == nil {
		t.Fatalf("missing hybrid series: %v", bench.Labels(e))
	}
	r4, _ := hy.ValueAt(4)
	r8, _ := hy.ValueAt(8)
	if r8 >= r4 {
		t.Errorf("hybrid: 8 hosts/2 clusters (%v steps/s) not slower than 4 hosts (%v) at small N", r8, r4)
	}
}

func TestT1MatchesPaperInventory(t *testing.T) {
	e := quickFigure(t, "t1")
	s := e.FindSeries("peak speed")
	if s == nil {
		t.Fatal("missing series")
	}
	chip, _ := s.ValueAt(1)
	if math.Abs(chip-30.78) > 0.05 {
		t.Errorf("chip peak = %v, paper: 30.8 Gflops", chip)
	}
	full, _ := s.ValueAt(2048)
	if math.Abs(full-63040) > 100 {
		t.Errorf("full machine = %v Gflops, paper: 63.04 Tflops", full)
	}
}

func TestApplicationsInPaperDecade(t *testing.T) {
	e := quickFigure(t, "t5ab")
	tf := e.FindSeries("sustained speed")
	if tf == nil {
		t.Fatal("missing series")
	}
	k, _ := tf.ValueAt(1800000)
	b, _ := tf.ValueAt(2000000)
	for _, v := range []float64{k, b} {
		if v < 20 || v > 63 {
			t.Errorf("application Tflops = %v, paper: 33.4/35.3", v)
		}
	}
	h := e.FindSeries("wall-clock")
	kh, _ := h.ValueAt(1800000)
	bh, _ := h.ValueAt(2000000)
	if kh < 8 || kh > 35 {
		t.Errorf("Kuiper hours = %v, paper: 16.30", kh)
	}
	if bh <= kh {
		t.Error("BH run should take longer than Kuiper run")
	}
}

func TestTreecodeComparison(t *testing.T) {
	e := quickFigure(t, "t5c")
	s := e.FindSeries("particle steps per second")
	if s == nil {
		t.Fatal("missing series")
	}
	grape, _ := s.ValueAt(1)
	gadget, _ := s.ValueAt(2)
	asciCorrected, _ := s.ValueAt(4)
	// Paper: GRAPE-6 ~3.3e5; Gadget 1e4 (~3% of GRAPE); corrected ASCI Red
	// ~1/70 of GRAPE.
	if grape < 1e5 || grape > 1e6 {
		t.Errorf("GRAPE-6 rate = %v, paper: ~3.3e5", grape)
	}
	if gadget >= grape {
		t.Error("Gadget should be far below GRAPE-6")
	}
	if asciCorrected >= grape {
		t.Error("corrected ASCI-Red rate should be below GRAPE-6")
	}
	// The treecode's point: a particle step walks fewer terms than the
	// N-1 of direct summation.
	local := e.FindSeries("interactions per particle step")
	if local == nil || len(local.Points) != 1 {
		t.Fatal("missing treecode interaction count")
	}
	if p := local.Points[0]; p.Value <= 0 || p.Value >= float64(p.N-1) {
		t.Errorf("tree interactions per particle step = %v at N=%d, want in (0, N-1)", p.Value, p.N)
	}
}

func TestAblationMantissaCliff(t *testing.T) {
	e := quickFigure(t, "a1")
	s := e.Series[0]
	short, _ := s.ValueAt(24)
	long, _ := s.ValueAt(32)
	if short < 3*long {
		t.Errorf("no noise cliff: %v blocks at 24 bits vs %v at 32", short, long)
	}
}

func TestAblationAccumulatorMonotone(t *testing.T) {
	e := quickFigure(t, "a2")
	s := e.Series[0]
	coarse, _ := s.ValueAt(12)
	fine, _ := s.ValueAt(40)
	if fine >= coarse {
		t.Errorf("accumulator error not decreasing: %v at 12 bits, %v at 40", coarse, fine)
	}
}

func TestAblationVMPEfficiency(t *testing.T) {
	e := quickFigure(t, "a3")
	b48 := e.FindSeries("i-batch 48")
	b768 := e.FindSeries("i-batch 768")
	if b48 == nil || b768 == nil {
		t.Fatal("missing series")
	}
	// At small N the shallow-parallelism design is more efficient.
	v48, _ := b48.ValueAt(1000)
	v768, _ := b768.ValueAt(1000)
	if v768 >= v48 {
		t.Errorf("deep parallelism should hurt small N: %v vs %v", v768, v48)
	}
}

func TestAblationHostGrid(t *testing.T) {
	e := quickFigure(t, "a5")
	if len(e.Series) != 2 {
		t.Fatalf("series = %v", bench.Labels(e))
	}
	// The hardware network always costs less per block.
	grid := e.Series[0]
	hw := e.Series[1]
	for i := range grid.Points {
		if hw.Points[i].Value >= grid.Points[i].Value {
			t.Errorf("hardware network not cheaper at N=%d", grid.Points[i].N)
		}
	}
}

func TestAblationGrape4(t *testing.T) {
	e := quickFigure(t, "a6")
	g4 := e.FindSeries("GRAPE-4 (full machine)")
	g6 := e.FindSeries("GRAPE-6 full machine")
	if g4 == nil || g6 == nil {
		t.Fatalf("missing series: %v", bench.Labels(e))
	}
	a, _ := g4.ValueAt(1000000)
	b, _ := g6.ValueAt(1000000)
	if b/a < 20 {
		t.Errorf("GRAPE-6/GRAPE-4 ratio at 1e6 = %v, want ≫1", b/a)
	}
	// GRAPE-4 approaches its ~1 Tflops peak at large N.
	if a < 300 || a > 1100 {
		t.Errorf("GRAPE-4 at 1e6 = %v Gflops, want hundreds", a)
	}
}

func TestValidationExperiment(t *testing.T) {
	e := quickFigure(t, "v1")
	s := e.FindSeries("validation metrics")
	if s == nil {
		t.Fatal("missing series")
	}
	dev, _ := s.ValueAt(1)
	if dev > 1e-6 {
		t.Errorf("hardware deviation %v too large", dev)
	}
	hwDrift, _ := s.ValueAt(3)
	if hwDrift > 1e-4 {
		t.Errorf("hardware energy drift %v", hwDrift)
	}
	bitID, _ := s.ValueAt(4)
	if bitID != 1 {
		t.Error("machine-size bit-invariance violated")
	}
}

func TestNeighbourSchemeSaving(t *testing.T) {
	e := quickFigure(t, "a7")
	s := e.Series[0]
	small, _ := s.ValueAt(128)
	big, _ := s.ValueAt(256)
	if small < 1.0 || big < 1.2 {
		t.Errorf("savings too small: %v at 128, %v at 256", small, big)
	}
	if big <= small {
		t.Errorf("saving did not grow with N: %v vs %v", big, small)
	}
}
