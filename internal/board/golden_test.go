package board_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"grape6/internal/chip"
	"grape6/internal/forcecheck"
)

// The two anchors of the partition-invariance suite. forcecheck holds
// every force path to its one-chip reference; these pin the bits of the
// board path itself, on fixed workloads, to hashes captured before any
// optimization of the kernel or the pool.

// seedKernelHash is the FNV-1a hash of the merged partials of the fixed
// workload below, captured from the pre-optimization (seed) force kernel.
// It pins the bit-exact output of the whole pipeline — fixed-point
// differences, mantissa rounding, block-floating-point accumulation and
// the reduction tree — so any "optimization" that changes a single result
// bit fails here.
const seedKernelHash = 0x0f9ec51439e83dd1

// hashPartials adds every merged partial to h: all seven accumulator sums
// plus the nearest-neighbour id.
func hashPartials(h interface{ Write([]byte) (int, error) }, ps []chip.Partial) {
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for q := range ps {
		p := &ps[q]
		for c := 0; c < 3; c++ {
			w(p.Acc[c].Sum)
			w(p.Jerk[c].Sum)
		}
		w(p.Pot.Sum)
		w(int64(p.NN))
	}
}

func TestGoldenBitIdentityVsSeedKernel(t *testing.T) {
	a := small(t)
	_, is := forcecheck.LoadPlummer(t, a, 512, 42)
	out := make([]chip.Partial, 96)
	a.ForcesInto(out, 0.015625, is[:96], 1.0/64)
	h := fnv.New64a()
	hashPartials(h, out)
	if got := h.Sum64(); got != seedKernelHash {
		t.Errorf("merged partials hash %#016x differs from seed kernel %#016x:"+
			" the optimized force path changed result bits", got, seedKernelHash)
	}
}

// multiStepHash is the FNV-1a hash of a 24-block individual-timestep
// workload: every block advances the time (so the same-t predict memo
// never hits), evaluates forces on a 4-particle block and writes the
// corrected block back through UpdateJ — exercising the force pass on a
// stale cache, each span predicting its own slots, together with the
// memory writes between passes. Captured from the serial
// pre-optimization path.
const multiStepHash = 0x12ad9bc6633aaa87

func TestGoldenMultiStepSerial(t *testing.T) {
	// One processor: the pool is a single worker running every span in
	// turn.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := small(t)
	js, _ := forcecheck.LoadPlummer(t, a, 2048, 77)
	f := a.Config().Chip.Format
	h := fnv.New64a()

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
		hashPartials(h, dst)
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
	if got := h.Sum64(); got != multiStepHash {
		t.Errorf("one-worker multi-step hash %#016x, want %#016x", got, multiStepHash)
	}
}
