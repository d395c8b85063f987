package bench

import (
	"bytes"
	"runtime"
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

// For the external tests of pin_test.go and paper_test.go.
var (
	SharedOpts = sharedOpts
	Labels     = labels
)

func labels(e Figure) []string {
	var out []string
	for _, s := range e.Series {
		out = append(out, s.Label)
	}
	return out
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
