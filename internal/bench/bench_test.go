package bench

import (
	"math"
	"runtime"
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

// Labels is for the external tests of paper_test.go.
var Labels = labels

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

// TestAllRuns runs each Experiments entry once at quick fidelity, all on
// one Options: it returns series and the notes it computes but no
// identity or stamp, which come from its spec; every series is labelled
// once and holds finite points. The figures are diffed against their pins
// in internal/scenario, through the specs.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	want := []string{"t1", "t5ab", "t5c", "a1", "a2", "a3", "a5", "a6", "a7", "v1"}
	if len(Experiments) != len(want) {
		t.Errorf("%d experiments, want %d", len(Experiments), len(want))
	}
	o := QuickOptions()
	for _, id := range want {
		run, ok := Experiments[id]
		if !ok {
			t.Errorf("missing experiment %s", id)
			continue
		}
		fig, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != "" || fig.Title != "" || fig.Paper != "" || fig.Fidelity != "" || fig.Seed != 0 {
			t.Errorf("%s: figure carries %q/%q/%q/%q/%d, which its spec and Stamp own", id, fig.ID, fig.Title, fig.Paper, fig.Fidelity, fig.Seed)
		}
		if len(fig.Series) == 0 {
			t.Errorf("%s: no series", id)
		}
		labels := map[string]bool{}
		for _, s := range fig.Series {
			if labels[s.Label] {
				t.Errorf("%s: series %q twice", id, s.Label)
			}
			labels[s.Label] = true
			if len(s.Points) == 0 {
				t.Errorf("%s: series %q has no points", id, s.Label)
			}
			for _, p := range s.Points {
				if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
					t.Errorf("%s: series %q N=%d is %v", id, s.Label, p.N, p.Value)
				}
			}
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

// TestEmulatorRunsReleaseWorkers holds the experiments that build their own
// emulated arrays (a1 six, v1 two) and a core simulator on its own array to closing
// them: an array spawns a GOMAXPROCS worker pool on its first force call,
// and one left open strands those goroutines for the life of the process.
func TestEmulatorRunsReleaseWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers per pool on any host
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"a1", func() error { _, err := runAblationMantissa(QuickOptions()); return err }},
		{"v1", func() error { _, err := runValidation(QuickOptions()); return err }},
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
