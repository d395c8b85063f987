package bench

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/sched"
	"grape6/internal/units"
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

// Options is shared by callers that fit several softenings at once: two
// kinds fitted together and one kind asked for twice leave one cached fit
// per kind, which every caller of that kind gets (go test -race checks the
// cache). The fit is shrunk so the race detector's run stays short.
func TestWorkloadConcurrentCalls(t *testing.T) {
	var fits atomic.Int32
	orig := fitWorkload
	defer func() { fitWorkload = orig }()
	fitWorkload = func(kind units.SofteningKind, _ []int, _ float64, seed uint64) (*sched.Workload, error) {
		fits.Add(1)
		return sched.FitWorkload(kind, []int{32, 64}, 1.0/32, seed)
	}
	o := QuickOptions()
	kinds := []units.SofteningKind{units.SoftConstant, units.SoftOverN, units.SoftConstant}
	got := make([]*sched.Workload, len(kinds))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w, err := o.Workload(kind)
			if err != nil {
				t.Error(err)
			}
			got[i] = w
		}()
	}
	close(start)
	wg.Wait()
	if len(o.workloads) != 2 {
		t.Fatalf("%d cached fits, want one per kind (2)", len(o.workloads))
	}
	for i, kind := range kinds {
		if got[i] == nil || got[i] != o.workloads[kind] || got[i].Kind != kind {
			t.Errorf("call %d (%v) did not return the cached fit of its kind", i, kind)
		}
	}
	n := fits.Load()
	if w, _ := o.Workload(units.SoftOverN); w != got[1] || fits.Load() != n {
		t.Error("a cached kind was fitted again")
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
