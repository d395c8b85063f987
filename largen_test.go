// Large-N smoke: the paper's production regime is N ≈ 1-2M, far beyond
// what an O(N²)-initialised integration can cover in a test budget. This
// file exercises the two scaling mechanisms this regime depends on — the
// bucketed block-timestep scheduler and multi-page j-set streaming —
// directly at N = 64k, in a few seconds.
package grape6_test

import (
	"math"
	"testing"

	"grape6/internal/chip"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/xrand"

	gboard "grape6/internal/board"
)

// syntheticSteps assigns a power-law-ish mix of commensurate power-of-two
// steps to sys, mimicking a settled block-timestep distribution.
func syntheticSteps(sys *nbody.System, rng *xrand.Source, minExp, maxExp int) {
	for i := 0; i < sys.N; i++ {
		e := minExp + rng.Intn(maxExp-minExp+1)
		sys.Step[i] = math.Ldexp(1, e)
		sys.Time[i] = 0
	}
}

func TestLargeN64kSchedulerSmoke(t *testing.T) {
	// 64k particles, settled synthetic step spectrum: drive 64 blocks and
	// hold the scheduler to the O(N)-scan reference at every one.
	const n = 65536
	sys := nbody.New(n)
	rng := xrand.New(1009)
	syntheticSteps(sys, rng, -16, -9)
	s := nbody.NewBlockSched(sys)
	var block []int
	var total int
	for b := 0; b < 64; b++ {
		wantT := sys.MinTime()
		if got := s.NextTime(); got != wantT {
			t.Fatalf("block %d: NextTime %v, want %v", b, got, wantT)
		}
		block = s.AppendBlock(sys, wantT, block[:0])
		wantSize := 0
		for i := 0; i < n; i++ {
			if sys.Time[i]+sys.Step[i] == wantT {
				wantSize++
			}
		}
		if len(block) != wantSize {
			t.Fatalf("block %d: size %d, want %d", b, len(block), wantSize)
		}
		total += len(block)
		for _, i := range block {
			sys.Time[i] = wantT
			// Random commensurate walk keeps the spectrum evolving.
			switch rng.Intn(4) {
			case 0:
				if sys.Step[i] > math.Ldexp(1, -20) {
					sys.Step[i] /= 2
				}
			case 1:
				d := 2 * sys.Step[i]
				if wantT == math.Trunc(wantT/d)*d {
					sys.Step[i] = d
				}
			}
			s.Rebin(sys, i)
		}
		if s.Bins() < 1 || s.Bins() > 64 {
			t.Fatalf("block %d: implausible bin occupancy %d", b, s.Bins())
		}
	}
	if total == 0 {
		t.Fatal("no particles stepped")
	}
}

func TestLargeN64kPagedForceSmoke(t *testing.T) {
	// A 64k j-set forced through 4 chips of 4096 slots (16k chip slots —
	// 4 pages) must reproduce the one-page evaluation bit for bit.
	if testing.Short() {
		t.Skip("large-N smoke skipped in -short")
	}
	const n = 65536
	sys := model.Plummer(n, xrand.New(2027))

	force := func(memCapacity int) ([]chip.Partial, bool) {
		cfg := gboard.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = 1 // 4 chips
		cfg.Chip.MemCapacity = memCapacity
		arr := gboard.New(cfg)
		defer arr.Close()
		bk := gbackend.New(arr)
		bk.Load(sys)
		f := cfg.Chip.Format

		const ni = 8
		is := make([]chip.IParticle, ni)
		for q := 0; q < ni; q++ {
			i := q * (n / ni)
			p, err := chip.MakeJParticle(f, sys.ID[i], 0, sys.Mass[i], sys.Pos[i], sys.Vel[i],
				sys.Acc[i], sys.Jerk[i], sys.Snap[i])
			if err != nil {
				t.Fatal(err)
			}
			x, v := chip.PredictParticle(f, &p, 0)
			is[q] = chip.IParticle{X: x, V: v, SelfID: p.ID, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
		}
		dst := make([]chip.Partial, ni)
		arr.ForcesInto(dst, 0, is, 1.0/64)
		return dst, arr.NJ() > memCapacity*cfg.TotalChips()
	}

	want, wantMulti := force(65536) // one page
	got, gotMulti := force(4096)    // 4 pages
	if wantMulti {
		t.Fatal("reference run unexpectedly a multi-page set")
	}
	if !gotMulti {
		t.Fatal("streaming run is not a multi-page set")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("partial %d differs between one-page and multi-page sets at N=64k", i)
		}
	}
}
