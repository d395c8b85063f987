// The paper-claim guard: what Figs. 13-19 and the cosim sweep must show
// whatever the baselines say — crossovers, the 1/N regime, the tuning
// gain — so that a careless -update cannot re-pin a claim away. The
// figures come from the committed specs, hence the external test package
// (scenario imports bench).
package bench_test

import (
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"grape6/internal/bench"
	"grape6/internal/scenario"
)

// quickFigures caches one quick-fidelity run per spec id.
var quickFigures = map[string]bench.Figure{}

// quickFigure loads scenarios/<id>.json and returns its figure on the
// package's shared quick Options, running it on first use.
func quickFigure(t *testing.T, id string) bench.Figure {
	t.Helper()
	if fig, ok := quickFigures[id]; ok {
		return fig
	}
	spec, err := scenario.Load(filepath.Join("../../scenarios", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := scenario.Run(spec, bench.SharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	quickFigures[id] = fig
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
