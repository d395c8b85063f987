package board

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"grape6/internal/chip"
)

// seedKernelHash is the FNV-1a hash of the merged partials of the fixed
// workload below, captured from the pre-optimization (seed) force kernel.
// It pins the bit-exact output of the whole pipeline — fixed-point
// differences, mantissa rounding, block-floating-point accumulation and
// the reduction tree — so any "optimization" that changes a single result
// bit fails here.
const seedKernelHash = 0x0f9ec51439e83dd1

// goldenWorkloadHash evaluates the fixed seeded workload on an array built
// from cfg and hashes every merged partial: all seven accumulator sums plus
// the nearest-neighbour id per i-particle.
func goldenWorkloadHash(t *testing.T, cfg Config, forces func(a *Array, is []chip.IParticle) []*chip.Partial) uint64 {
	t.Helper()
	a := New(cfg)
	defer a.Close()
	_, is := loadPlummer(t, a, 512, 42)
	out := forces(a, is[:96])

	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, p := range out {
		for c := 0; c < 3; c++ {
			w(p.Acc[c].Sum)
			w(p.Jerk[c].Sum)
		}
		w(p.Pot.Sum)
		w(int64(p.NN))
	}
	return h.Sum64()
}

func TestGoldenBitIdentityVsSeedKernel(t *testing.T) {
	got := goldenWorkloadHash(t, smallConfig(), func(a *Array, is []chip.IParticle) []*chip.Partial {
		out, _ := forces(a, 0.015625, is, 1.0/64)
		return out
	})
	if got != seedKernelHash {
		t.Errorf("merged partials hash %#016x differs from seed kernel %#016x:"+
			" the optimized force path changed result bits", got, seedKernelHash)
	}
}

func TestGoldenBitIdentityWorkerPool(t *testing.T) {
	// The parallel path — workers pre-merging their chips' partials locally
	// before the cross-worker merge — must also match the seed kernel bit
	// for bit (Section 3.4: integer accumulator adds are exact, so merge
	// order is irrelevant). Force GOMAXPROCS > 1 so the pool is wider than
	// one worker even on single-CPU hosts.
	forceParallel(t)
	got := goldenWorkloadHash(t, smallConfig(), func(a *Array, is []chip.IParticle) []*chip.Partial {
		out, _ := forces(a, 0.015625, is, 1.0/64)
		if ws := a.workers.Load(); ws == nil || len(*ws) == 0 {
			t.Fatal("worker pool did not engage for the golden workload")
		}
		return out
	})
	if got != seedKernelHash {
		t.Errorf("worker-pool hash %#016x differs from seed kernel %#016x", got, seedKernelHash)
	}
}

// eachProcs runs f under the GOMAXPROCS ladder of the partition tests: the
// ladder sizes the pool from one worker up and, through stripeLen, cuts the
// chip memories into different (chip, j-range) spans claimed by different
// workers.
func eachProcs(t *testing.T, f func(procs int)) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

func TestGoldenBitIdentityTileSweep(t *testing.T) {
	// How the j-memory is cut into spans and who merges which must be
	// invisible in the result bits: the golden workload reproduces the seed
	// kernel hash exactly at every pool width. The small-block cases are
	// 1-3 i-particles right after LoadJ, on a one-page set and on a
	// multi-page set: a stale memory, each span predicting its own
	// slots. They must match the single-chip reference and leave every
	// chip's cache at t.
	small := []struct {
		name string
		cfg  Config
		nj   int
	}{
		{"one page", smallConfig(), 512},
		{"multi-page", pagedConfig(64), 2048}, // 4 pages of 512
	}
	eachProcs(t, func(procs int) {
		got := goldenWorkloadHash(t, smallConfig(), func(a *Array, is []chip.IParticle) []*chip.Partial {
			out, _ := forces(a, 0.015625, is, 1.0/64)
			return out
		})
		if got != seedKernelHash {
			t.Errorf("GOMAXPROCS %d: hash %#016x differs from seed kernel %#016x", procs, got, seedKernelHash)
		}

		for _, tc := range small {
			a := New(tc.cfg)
			js, is := loadPlummer(t, a, tc.nj, 5)
			for ni := 1; ni <= 3; ni++ {
				if err := a.LoadJ(js); err != nil {
					t.Fatal(err)
				}
				const tm = 0x1p-6
				dst := make([]chip.Partial, ni)
				a.ForcesInto(dst, tm, is[:ni], 1.0/64)
				want := singleChipPartials(t, tc.cfg.Chip, js, tm, is[:ni], 1.0/64)
				for q := range dst {
					if dst[q] != want[q] {
						t.Errorf("%s, GOMAXPROCS %d, %d i-particles: partial %d differs from the single-chip reference", tc.name, procs, ni, q)
					}
				}
				for c, ch := range a.chips {
					if !ch.PredictedAt(tm) {
						t.Errorf("%s, GOMAXPROCS %d, %d i-particles: chip %d not predicted at t", tc.name, procs, ni, c)
					}
				}
			}
			a.Close()
		}
	})
}

// multiStepHash is the FNV-1a hash of a 24-block individual-timestep
// workload: every block advances the time (so the same-t predict memo
// never hits), evaluates forces on a 4-particle block and writes the
// corrected block back through UpdateJ — exercising the force pass on a
// stale cache, each span predicting its own slots, together with the
// memory writes between passes. Captured from the serial
// pre-optimization path.
const multiStepHash = 0x12ad9bc6633aaa87

// multiStepWorkloadHash runs the workload on a.
func multiStepWorkloadHash(t *testing.T, a *Array) uint64 {
	t.Helper()
	js, _ := loadPlummer(t, a, 2048, 77)
	f := a.Config().Chip.Format

	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}

	const nb = 4
	dst := make([]chip.Partial, nb)
	is := make([]chip.IParticle, nb)
	eps := 1.0 / 64
	for step := 0; step < 24; step++ {
		tm := float64(step+1) * math.Ldexp(1, -9)
		lo := (step * nb) % len(js)
		for q := 0; q < nb; q++ {
			j := &js[lo+q]
			x, v := chip.PredictParticle(f, j, tm)
			is[q] = chip.IParticle{X: x, V: v, SelfID: j.ID, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
		}
		a.ForcesInto(dst, tm, is, eps)
		for q := 0; q < nb; q++ {
			p := &dst[q]
			for c := 0; c < 3; c++ {
				w(p.Acc[c].Sum)
				w(p.Jerk[c].Sum)
			}
			w(p.Pot.Sum)
			w(int64(p.NN))
		}
		// Corrector stand-in: rewrite the block particles' memory images
		// with T0 = tm and deterministically perturbed state — the write
		// traffic between two force passes.
		for q := 0; q < nb; q++ {
			j := js[lo+q]
			j.T0 = tm
			x, v := chip.PredictParticle(f, &js[lo+q], tm)
			j.X = x
			j.V = v
			for c := 0; c < 3; c++ {
				j.A[c] = f.Round(j.A[c] + math.Ldexp(float64(step+1), -20))
			}
			js[lo+q] = j
			if err := a.UpdateJ(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h.Sum64()
}

func TestGoldenMultiStepSerial(t *testing.T) {
	// One processor: the pool is a single worker running every span in
	// turn.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := New(smallConfig())
	defer a.Close()
	if got := multiStepWorkloadHash(t, a); got != multiStepHash {
		t.Errorf("one-worker multi-step hash %#016x, want %#016x", got, multiStepHash)
	}
}

func TestGoldenMultiStepParallel(t *testing.T) {
	forceParallel(t)
	a := New(smallConfig())
	defer a.Close()
	if got := multiStepWorkloadHash(t, a); got != multiStepHash {
		t.Errorf("parallel multi-step hash %#016x, want %#016x", got, multiStepHash)
	}
}

func TestGoldenMultiStepTiled(t *testing.T) {
	// The full individual-timestep loop — predict, force, write back — must
	// match the serial pre-optimization hash however wide the pool: 2048
	// j-particles stripe into spans of 256, 170 and 64 slots at 2, 3 and 8.
	eachProcs(t, func(procs int) {
		a := New(smallConfig())
		defer a.Close()
		if got := multiStepWorkloadHash(t, a); got != multiStepHash {
			t.Errorf("GOMAXPROCS %d: multi-step hash %#016x, want %#016x", procs, got, multiStepHash)
		}
	})
}

func TestGoldenBitIdentityForcesInto(t *testing.T) {
	// The reuse path through a dirty, caller-owned slab must produce the
	// same bits as the seed kernel too.
	got := goldenWorkloadHash(t, smallConfig(), func(a *Array, is []chip.IParticle) []*chip.Partial {
		slab := make([]chip.Partial, len(is))
		a.ForcesInto(slab, 0.25, is, 0.5) // dirty the slab with another workload
		a.ForcesInto(slab, 0.015625, is, 1.0/64)
		out := make([]*chip.Partial, len(is))
		for i := range slab {
			out[i] = &slab[i]
		}
		return out
	})
	if got != seedKernelHash {
		t.Errorf("ForcesInto hash %#016x differs from seed kernel %#016x", got, seedKernelHash)
	}
}
