package parallel

import (
	"math"
	"strings"
	"testing"

	"grape6/internal/des"
	"grape6/internal/nbody"
	"grape6/internal/vtrace"
)

func TestRunDispatch(t *testing.T) {
	sys := func() *nbody.System { return plummer(32, 3) }
	for _, tc := range []struct {
		algo            string
		hosts, clusters int
		direct          func(Config) (*Result, error)
	}{
		{"copy", 2, 0, func(c Config) (*Result, error) { return RunCopy(sys(), 0.03125, c) }},
		{"ring", 2, 0, func(c Config) (*Result, error) { return RunRing(sys(), 0.03125, c) }},
		{"grid", 4, 0, func(c Config) (*Result, error) { return RunGrid(sys(), 0.03125, c) }},
		{"hybrid", 8, 2, func(c Config) (*Result, error) { return RunHybrid(sys(), 0.03125, 2, c) }},
	} {
		if !Known(tc.algo) {
			t.Errorf("%s not known", tc.algo)
		}
		got, err := Run(tc.algo, sys(), 0.03125, tc.clusters, testConfig(tc.hosts))
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		want, err := tc.direct(testConfig(tc.hosts))
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if got.VirtualTime != want.VirtualTime || got.Messages != want.Messages || !sysEqual(got.Sys, want.Sys) {
			t.Errorf("Run(%q) differs from its entry point", tc.algo)
		}
	}
	if Known("tree") {
		t.Error("tree known")
	}
	if _, err := Run("tree", sys(), 0.03125, 0, testConfig(2)); err == nil || !strings.Contains(err.Error(), `"tree"`) {
		t.Errorf("unknown algorithm: got %v", err)
	}
}

// Particle ids need not be 0..N-1 (ring, grid and hybrid used to index
// the gathered system by id). Offsets that are multiples of the host count
// leave every id-hashed share as it was, so the runs must agree with the
// zero-based one particle for particle.
func TestArbitraryIDs(t *testing.T) {
	for _, tc := range []struct {
		algo            string
		hosts, clusters int
	}{{"copy", 4, 0}, {"ring", 4, 0}, {"grid", 4, 0}, {"hybrid", 8, 2}} {
		base, err := Run(tc.algo, plummer(32, 5), 0.0625, tc.clusters, testConfig(tc.hosts))
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		for _, off := range []int{1024, -1024} {
			sys := plummer(32, 5)
			for i := range sys.ID {
				sys.ID[i] += off
			}
			res, err := Run(tc.algo, sys, 0.0625, tc.clusters, testConfig(tc.hosts))
			if err != nil {
				t.Errorf("%s, ids %+d: %v", tc.algo, off, err)
				continue
			}
			if res.VirtualTime != base.VirtualTime || res.Messages != base.Messages || res.Steps != base.Steps {
				t.Errorf("%s, ids %+d: run statistics moved", tc.algo, off)
			}
			for i := 0; i < base.Sys.N; i++ {
				a, b := base.Sys, res.Sys
				if b.ID[i] != a.ID[i]+off || a.Mass[i] != b.Mass[i] ||
					a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Acc[i] != b.Acc[i] || a.Jerk[i] != b.Jerk[i] ||
					a.Snap[i] != b.Snap[i] || a.Crack[i] != b.Crack[i] ||
					a.Pot[i] != b.Pot[i] || a.Time[i] != b.Time[i] || a.Step[i] != b.Step[i] {
					t.Errorf("%s, ids %+d: particle %d differs from the zero-based run", tc.algo, off, i)
					break
				}
			}
		}

		dup := plummer(32, 5)
		dup.ID[7] = dup.ID[6]
		if _, err := Run(tc.algo, dup, 0.0625, tc.clusters, testConfig(tc.hosts)); err == nil {
			t.Errorf("%s accepted duplicate ids", tc.algo)
		}
	}
}

// A diagonal host that is sent too few partial forces must fail the run
// with its own error — not panic inside its process, and not be reported
// as the deadlock its silence causes. Rank 1 of a 2×2 grid, host (0,1), is
// the rogue: it agrees on the block time and then ships one partial too
// few to its diagonal, rank 0. The peers the failure strands stay parked:
// run reads them off Engine.Live and leaves their coroutines suspended for
// good (des never stops a live process — that would resume its body).
func TestHybridHostSurfacesShortPartial(t *testing.T) {
	err := runRogueGrid(t, sendShortPartial)
	if err == nil {
		t.Fatal("short partial list did not fail the run")
	}
	if !strings.Contains(err.Error(), "host 0") || !strings.Contains(err.Error(), "partial") {
		t.Errorf("error does not name the diagonal host's cause: %v", err)
	}
}

// runRogueGrid runs a 2×2 grid on a 16-particle system in which rank 1,
// host (0,1), agrees on the first block time and then, instead of forcing
// its share, calls rogue with the slots of that block in subset 0 and
// leaves the run. The others run the real hybrid host.
func runRogueGrid(t *testing.T, rogue func(w *world, block []int)) error {
	_, err := run(plummer(16, 9), 1.0, testConfig(4), exchange{
		check: func(int) error { return nil },
		build: func(w *world, sys *nbody.System) (hostFunc, []*nbody.System) {
			host, final := buildHybrid(w, sys, 1, 2)
			row := sys.Subset(identity(sys.N / 2)) // subset 0, as rank 0 holds it
			return func(p *des.Proc, rank int, rec *vtrace.Recorder) error {
				if rank != 1 {
					return host(p, rank, rec)
				}
				tm := allreduceMin(p, w.net, 1, 4, tagMin, math.Inf(1), nil)
				var sc scratch
				sc.selectBlock(row, tm, 1, 0)
				if len(sc.block) == 0 {
					t.Error("the first block has no member in subset 0: pick another seed")
					return nil
				}
				rogue(w, sc.block)
				return nil
			}, final
		},
	})
	return err
}

// sendShortPartial ships the diagonal one partial force too few.
func sendShortPartial(w *world, block []int) {
	short := make([]pforce, len(block)-1)
	w.net.Send(1, 0, tagPartial+1, len(short)*pforceBytes, short)
}
