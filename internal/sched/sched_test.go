package sched

import (
	"math"
	"runtime"
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

func TestRecordBasics(t *testing.T) {
	tr, err := Record(128, units.SoftConstant, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 128 || tr.Eps != 1.0/64 {
		t.Errorf("trace meta: %+v", tr)
	}
	if len(tr.Blocks) == 0 {
		t.Fatal("empty trace")
	}
	if tr.TotalSteps() < int64(tr.N) {
		t.Errorf("total steps %d < N", tr.TotalSteps())
	}
	if tr.MeanBlockSize() < 1 || tr.MeanBlockSize() > float64(tr.N) {
		t.Errorf("mean block size %v out of range", tr.MeanBlockSize())
	}
	if tr.BlocksPerUnitTime() <= 0 || tr.StepsPerUnitTime() <= 0 {
		t.Error("non-positive rates")
	}
}

func TestEmptyTraceRates(t *testing.T) {
	tr := &Trace{N: 10}
	if tr.MeanBlockSize() != 0 || tr.BlocksPerUnitTime() != 0 || tr.StepsPerUnitTime() != 0 {
		t.Error("empty trace should have zero rates")
	}
}

func TestLinfit(t *testing.T) {
	// Exact line y = 2 + 3x.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{2, 5, 8, 11}
	a, b, err := linfit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 1e-12 || math.Abs(b-3) > 1e-12 {
		t.Errorf("fit = (%v, %v), want (2, 3)", a, b)
	}
	// Singular when all x equal.
	if _, _, err := linfit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("accepted singular fit")
	}
}

func TestFitWorkloadRejectsTooFew(t *testing.T) {
	if _, err := FitWorkload(units.SoftConstant, []int{128}, 0.1, 1); err == nil {
		t.Error("accepted single-point fit")
	}
	if _, err := FromTraces(units.SoftConstant, nil); err == nil {
		t.Error("accepted empty trace list")
	}
}

// withProcs runs f at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// The integrations run side by side, yet each trace is the one a lone
// Record call gives, block for block, and so are the fitted coefficients,
// whether the fit runs on the caller (GOMAXPROCS=1) or on several workers.
func TestFitWorkloadMatchesSerialRecords(t *testing.T) {
	ns := []int{64, 128, 256}
	const d, seed = 0.125, 11
	serial := make([]*Trace, len(ns))
	for i, n := range ns {
		tr, err := Record(n, units.SoftNDependent, d, seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = tr
	}
	want, err := FromTraces(units.SoftNDependent, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		var w *Workload
		withProcs(procs, func() { w, err = FitWorkload(units.SoftNDependent, ns, d, seed) })
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(w.Measured) != len(ns) {
			t.Fatalf("GOMAXPROCS=%d: %d traces, want %d", procs, len(w.Measured), len(ns))
		}
		for i, tr := range w.Measured {
			ref := serial[i]
			if tr.N != ref.N || len(tr.Blocks) != len(ref.Blocks) {
				t.Fatalf("GOMAXPROCS=%d trace %d: N=%d with %d blocks, want N=%d with %d",
					procs, i, tr.N, len(tr.Blocks), ref.N, len(ref.Blocks))
			}
			for k, b := range tr.Blocks {
				r := ref.Blocks[k]
				if math.Float64bits(b.Time) != math.Float64bits(r.Time) || b.Size != r.Size || b.Bins != r.Bins {
					t.Fatalf("GOMAXPROCS=%d trace %d block %d: %+v, want %+v", procs, i, k, b, r)
				}
			}
		}
		for _, c := range [][2]float64{
			{w.StepsA, want.StepsA}, {w.StepsB, want.StepsB},
			{w.BlocksA, want.BlocksA}, {w.BlocksB, want.BlocksB},
		} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				t.Errorf("GOMAXPROCS=%d: coefficient %v, want %v bit for bit", procs, c[0], c[1])
			}
		}
	}
}

// A failed integration fails the fit with its own error, and when several
// fail, the lowest index's error wins, however the runs interleave.
func TestFitWorkloadErrorIsLowestIndex(t *testing.T) {
	for _, tc := range []struct {
		ns   []int
		d    float64
		want string
	}{
		// N=0 is refused by hermite.New; the others integrate.
		{[]int{64, 0, 128}, 0.0625, "hermite: empty system"},
		// Over zero time every trace is empty: all three fail.
		{[]int{256, 0, 128}, 0, "sched: empty trace at N=256"},
	} {
		for _, procs := range []int{1, 4} {
			for rep := 0; rep < 3; rep++ {
				var err error
				withProcs(procs, func() { _, err = FitWorkload(units.SoftConstant, tc.ns, tc.d, 3) })
				if err == nil || err.Error() != tc.want {
					t.Fatalf("ns=%v GOMAXPROCS=%d run %d: error %v, want %q", tc.ns, procs, rep, err, tc.want)
				}
			}
		}
	}
}

// measuredWorkload is shared by the scaling tests (measuring is the
// expensive part).
var measuredWorkload *Workload

func workload(t *testing.T) *Workload {
	t.Helper()
	if measuredWorkload == nil {
		w, err := FitWorkload(units.SoftConstant, []int{128, 256, 512}, 0.25, 7)
		if err != nil {
			t.Fatal(err)
		}
		measuredWorkload = w
	}
	return measuredWorkload
}

func TestWorkloadScalings(t *testing.T) {
	w := workload(t)
	// Steps per unit time grows superlinearly-ish with N (more particles,
	// each stepping at a similar or faster rate): exponent in (0.8, 2).
	if w.StepsB < 0.8 || w.StepsB > 2.0 {
		t.Errorf("steps exponent = %v, implausible", w.StepsB)
	}
	// Blocks per unit time grows much more slowly than steps.
	if w.BlocksB >= w.StepsB {
		t.Errorf("blocks exponent %v ≥ steps exponent %v", w.BlocksB, w.StepsB)
	}
	// Mean block size grows with N (the paper: "the number of particles
	// integrated in one blockstep is roughly proportional to N").
	if w.MeanBlockSize(512) <= w.MeanBlockSize(128) {
		t.Error("mean block size not growing with N")
	}
}

func TestWorkloadInterpolatesMeasurement(t *testing.T) {
	w := workload(t)
	// The fit should reproduce each measured point within a factor ~1.5.
	for _, tr := range w.Measured {
		pred := w.StepsPerUnitTime(tr.N)
		meas := tr.StepsPerUnitTime()
		if r := pred / meas; r < 0.6 || r > 1.7 {
			t.Errorf("N=%d: predicted steps rate %v vs measured %v", tr.N, pred, meas)
		}
	}
}

func TestMeanBlockSizeClamped(t *testing.T) {
	w := workload(t)
	if s := w.MeanBlockSize(2); s > 2 {
		t.Errorf("mean block size %v exceeds N=2", s)
	}
	if s := w.MeanBlockSize(1_000_000); s < 1 {
		t.Errorf("mean block size %v below 1", s)
	}
}

func TestSyntheticTraceProperties(t *testing.T) {
	w := workload(t)
	n := 100000
	tr := w.Synthetic(n, 0.5, xrand.New(3))
	if tr.N != n || tr.Duration != 0.5 {
		t.Errorf("synthetic meta %+v", tr)
	}
	if len(tr.Blocks) < 10 {
		t.Fatalf("only %d synthetic blocks", len(tr.Blocks))
	}
	// Sizes within [1, N]; times increasing.
	prev := 0.0
	for _, b := range tr.Blocks {
		if b.Size < 1 || b.Size > n {
			t.Fatalf("block size %d out of range", b.Size)
		}
		if b.Time <= prev {
			t.Fatalf("non-increasing block times")
		}
		prev = b.Time
	}
	// Mean size within a factor 2 of the model's prediction (sampling).
	if r := tr.MeanBlockSize() / w.MeanBlockSize(n); r < 0.5 || r > 2 {
		t.Errorf("synthetic mean block size off by %v", r)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	w := workload(t)
	a := w.Synthetic(10000, 0.25, xrand.New(9))
	b := w.Synthetic(10000, 0.25, xrand.New(9))
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("different lengths")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatal("non-deterministic synthetic trace")
		}
	}
}

func TestSofteningAffectsWorkload(t *testing.T) {
	// ε = 4/N (harder encounters at this N) must produce more steps per
	// particle than the constant softening at equal N.
	trC, err := Record(256, units.SoftConstant, 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	trN, err := Record(256, units.SoftOverN, 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	// At N=256 both softenings are equal (1/64), so rates should be close.
	r := trN.StepsPerUnitTime() / trC.StepsPerUnitTime()
	if r < 0.8 || r > 1.25 {
		t.Errorf("N=256 rates should match across equal softenings, ratio %v", r)
	}
	// At N=1024, ε = 4/N is 4x smaller than at 256 → more steps/particle.
	trC2, err := Record(1024, units.SoftConstant, 0.125, 12)
	if err != nil {
		t.Fatal(err)
	}
	trN2, err := Record(1024, units.SoftOverN, 0.125, 12)
	if err != nil {
		t.Fatal(err)
	}
	perPartC := trC2.StepsPerUnitTime() / 1024
	perPartN := trN2.StepsPerUnitTime() / 1024
	if perPartN <= perPartC {
		t.Errorf("smaller softening should cost more steps/particle: %v vs %v", perPartN, perPartC)
	}
}

func TestTraceConsistencyWithIntegrator(t *testing.T) {
	tr, err := Record(64, units.SoftConstant, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stats []hermite.BlockStat = tr.Blocks
	for i := 1; i < len(stats); i++ {
		if stats[i].Time <= stats[i-1].Time {
			t.Fatal("trace times not increasing")
		}
	}
	if stats[len(stats)-1].Time > 0.25 {
		t.Error("trace extends beyond requested duration")
	}
}
