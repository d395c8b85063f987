package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

// sharedOpts caches workload fits across tests in this package.
var sharedOpts = QuickOptions()

// For the external tests of paper_test.go.
var (
	SharedOpts = sharedOpts
	Labels     = labels
)

func TestT1MatchesPaperInventory(t *testing.T) {
	e := RunT1()
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

func labels(e Figure) []string {
	var out []string
	for _, s := range e.Series {
		out = append(out, s.Label)
	}
	return out
}

func TestApplicationsInPaperDecade(t *testing.T) {
	e, err := RunApplications(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
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
	e, err := RunTreecode(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
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
	local := e.FindSeries("this machine's treecode (shared step)")
	if local == nil || len(local.Points) == 0 || local.Points[0].Value <= 0 {
		t.Error("local treecode measurement missing")
	}
}

func TestAblationMantissaCliff(t *testing.T) {
	e, err := RunAblationMantissa(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Series[0]
	short, _ := s.ValueAt(24)
	long, _ := s.ValueAt(32)
	if short < 3*long {
		t.Errorf("no noise cliff: %v blocks at 24 bits vs %v at 32", short, long)
	}
}

func TestAblationAccumulatorMonotone(t *testing.T) {
	e, err := RunAblationAccumulator(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Series[0]
	coarse, _ := s.ValueAt(12)
	fine, _ := s.ValueAt(40)
	if fine >= coarse {
		t.Errorf("accumulator error not decreasing: %v at 12 bits, %v at 40", coarse, fine)
	}
}

func TestAblationVMPEfficiency(t *testing.T) {
	e, err := RunAblationVMP(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
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
	e, err := RunAblationHostGrid(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Series) != 2 {
		t.Fatalf("series = %v", labels(e))
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

func TestFormatOutput(t *testing.T) {
	e := RunT1()
	var buf bytes.Buffer
	e.Format(&buf)
	out := buf.String()
	for _, want := range []string{"t1", "peak speed", "N=2048", "paper:"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

// runnerGoldens holds each deterministic runner's quick figure as
// `grape6bench -exp <id> -quick -json` prints it.
const runnerGoldens = "../../testdata/runners"

// TestAllRuns: every runner of the table runs, under the id the table
// gives it, comes back stamped, and — all but t5c, whose live treecode
// row is wall-clock time — reproduces its committed JSON byte for byte.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	ids := map[string]bool{}
	for _, r := range Runners {
		if ids[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		ids[r.ID] = true
		e, err := r.Run(sharedOpts)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if e.ID != r.ID {
			t.Errorf("runner %s produced figure %q", r.ID, e.ID)
		}
		if len(e.Series) == 0 {
			t.Errorf("experiment %s has no series", e.ID)
		}
		if e.Fidelity != "quick" || e.Seed != sharedOpts.Seed {
			t.Errorf("%s: stamped %q/%d, want quick/%d", e.ID, e.Fidelity, e.Seed, sharedOpts.Seed)
		}
		for _, s := range e.Series {
			if !sort.SliceIsSorted(s.Points, func(i, j int) bool { return s.Points[i].N < s.Points[j].N }) {
				t.Errorf("%s: series %q not sorted by N", e.ID, s.Label)
			}
		}
		if r.ID == "t5c" {
			continue
		}
		var got bytes.Buffer
		if err := e.Write(&got); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		want, err := os.ReadFile(filepath.Join(runnerGoldens, r.ID+".quick.json"))
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: quick JSON differs from %s/%s.quick.json:\n%s", r.ID, runnerGoldens, r.ID, got.Bytes())
		}
	}
	for _, want := range []string{"t1", "t5ab", "t5c", "a1", "a2", "a3", "a5", "a6", "a7", "v1"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestAblationGrape4(t *testing.T) {
	e, err := RunAblationGrape4(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	g4 := e.FindSeries("GRAPE-4 (full machine)")
	g6 := e.FindSeries("GRAPE-6 full machine")
	if g4 == nil || g6 == nil {
		t.Fatalf("missing series: %v", labels(e))
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
	e, err := RunValidation(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
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
	e, err := RunAblationNeighbourScheme(sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
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

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// 20 ms: a closed pool's workers may still be unwinding.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestEmulatorRunsReleaseWorkers holds the runners that build their own
// emulated arrays (a1 six, v1 two) and a core simulator on its own array to closing
// them: an array spawns a GOMAXPROCS worker pool on its first force call,
// and one left open strands those goroutines for the life of the process.
func TestEmulatorRunsReleaseWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers per pool on any host
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"a1", func() error { _, err := RunAblationMantissa(sharedOpts); return err }},
		{"v1", func() error { _, err := RunValidation(sharedOpts); return err }},
		{"core", func() error {
			hw := board.Default
			hw.ChipsPerModule, hw.ModulesPerBoard, hw.Boards = 2, 2, 1
			sim, err := core.NewSimulator(model.Plummer(48, xrand.New(3)), core.Config{Backend: gbackend.New(board.New(hw)), Eps: 1.0 / 64})
			if err != nil {
				return err
			}
			sim.Run(1.0 / 32)
			sim.Close()
			sim.Close() // a repeat Close is a no-op
			return nil
		}},
	} {
		before := settledGoroutines()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := settledGoroutines(); n > before {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, n, before)
		}
	}
}
