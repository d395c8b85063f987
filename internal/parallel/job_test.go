package parallel

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/vec"
)

// The hosts' force evaluations run on GOMAXPROCS workers, so nothing a run
// reports may depend on the core count: every golden row must repeat bit
// for bit, with the same block sizes and final system, at 1, 2 and 4.
func TestGoldenAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenRuns {
		var ref *Result
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			res := runGolden(t, g)
			if bits := math.Float64bits(res.VirtualTime); bits != g.vtBits {
				t.Errorf("%s at GOMAXPROCS %d: virtual time %#x, want %#x", g.name, procs, bits, g.vtBits)
			}
			if h := breakdownHash(res.Breakdown); h != g.rankHash {
				t.Errorf("%s at GOMAXPROCS %d: breakdown hash %#x, want %#x", g.name, procs, h, g.rankHash)
			}
			if res.Messages != g.msgs || res.Bytes != g.bytes {
				t.Errorf("%s at GOMAXPROCS %d: msgs/bytes %d/%d, want %d/%d", g.name, procs, res.Messages, res.Bytes, g.msgs, g.bytes)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res.BlockSizes, ref.BlockSizes) {
				t.Errorf("%s: block sizes at GOMAXPROCS %d differ from GOMAXPROCS 1", g.name, procs)
			}
			if !reflect.DeepEqual(res.Sys, ref.Sys) {
				t.Errorf("%s: final system at GOMAXPROCS %d differs from GOMAXPROCS 1", g.name, procs)
			}
		}
	}
}

// goroutinesIn counts the goroutines with a frame whose name contains fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			count++
		}
	}
	return count
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// 20 ms: a worker may still be unwinding from its WaitGroup.Done, and an
// earlier test's goroutines may still be exiting.
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

// faultyBackend panics in every force evaluation.
type faultyBackend struct{ *hermite.DirectBackend }

func (faultyBackend) ForcesInto([]direct.Force, float64, []int, []vec.V3, []vec.V3, float64) []direct.Force {
	panic("pipeline fault")
}

// A run stops its workers however it ends. After Run returns, the only
// goroutines it may leave are the coroutines of hosts a failure stranded,
// which des keeps parked by design; on success there are none. A panic in
// a job surfaces from Run as the panic of the host that kicked it.
func TestWorkersDoNotOutliveRun(t *testing.T) {
	const (
		worker = "grape6/internal/parallel.work("
		proc   = "grape6/internal/des.(*Engine).Spawn."
	)
	for _, tc := range []struct {
		name    string
		run     func() error
		wantErr string
	}{
		{"success", func() error {
			_, err := Run("hybrid", plummer(32, 3), 0.03125, 2, testConfig(8))
			return err
		}, ""},
		{"host error", func() error { return runRogueGrid(t, sendShortPartial) }, "partial"},
		{"deadlock", func() error { return runRogueGrid(t, func(*world, []int) {}) }, "deadlocked"},
		{"panic", func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
			}()
			cfg := testConfig(4)
			cfg.NewBackend = func(rank int) hermite.Backend {
				if rank < 0 {
					return hermite.NewDirectBackend()
				}
				return faultyBackend{hermite.NewDirectBackend()}
			}
			_, err = Run("copy", plummer(32, 3), 0.03125, 0, cfg)
			return err
		}, "pipeline fault"},
		// The emulated GRAPE predicts i-particles from its own image; a
		// ring host's visitors are not in it, so it is handed nil slots
		// and refuses them.
		{"gbackend on the ring", func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
			}()
			var made []*gbackend.Backend
			defer func() {
				for _, b := range made {
					b.Close()
				}
			}()
			cfg := testConfig(4)
			cfg.NewBackend = func(rank int) hermite.Backend {
				b := tinyGrape(1)(rank).(*gbackend.Backend)
				made = append(made, b)
				return b
			}
			_, err = Run("ring", plummer(32, 3), 0.03125, 0, cfg)
			return err
		}, "nil slots"},
	} {
		before, parked := settledGoroutines(), goroutinesIn(proc)
		err := tc.run()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		stranded := goroutinesIn(proc) - parked
		if tc.wantErr == "" && stranded != 0 {
			t.Errorf("%s: %d host coroutines left parked", tc.name, stranded)
		}
		if n := settledGoroutines(); n > before+stranded {
			t.Errorf("%s: %d goroutines after the run, want at most %d (%d before, %d stranded hosts)", tc.name, n, before+stranded, before, stranded)
		}
		if n := goroutinesIn(worker); n != 0 {
			t.Errorf("%s: %d workers outlived the run", tc.name, n)
		}
	}
}
