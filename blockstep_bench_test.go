// Block-step overhead benchmarks: the host-side costs that bound GRAPE
// throughput once blocks get small at large N (the regime of the paper's
// production runs). BenchmarkBlockSchedStep vs BenchmarkBlockScanStep
// isolates the scheduling cost itself — bucketed O(active block)
// selection against the retired O(N) MinTime scan — on identical
// synthetic step spectra at N = 64k and N = 1M. BenchmarkStreamLoadJ
// measures a multi-page j-set's force path, and
// BenchmarkAhmadCohenBlockStep the neighbour-scheme steady state.
package grape6_test

import (
	"math"
	"math/bits"
	"testing"

	"grape6/internal/ahmadcohen"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/xrand"

	gboard "grape6/internal/board"
)

// benchStepSystem builds a bare N-particle system with a settled
// power-of-two step spectrum (no forces — these benchmarks isolate
// scheduling overhead from force work). Level populations halve with
// each finer octave over 16 octaves (P(exp = -9-k) = 2^-(k+1)), the
// shape a relaxed cluster with hard binaries settles into: the finest
// levels, which fire most often, hold a handful of particles, so the
// typical block is tiny relative to N — the paper's production regime,
// where a per-block O(N) scan dominates the step cost. The spectrum is
// static across the run (steps do not churn), so both benchmarks walk
// bit-identical block sequences; step-change Rebin correctness is
// covered by the scheduler property tests.
func benchStepSystem(n int) *nbody.System {
	sys := nbody.New(n)
	rng := xrand.New(509)
	for i := 0; i < n; i++ {
		k := bits.TrailingZeros64(rng.Uint64() | 1<<15)
		sys.Step[i] = math.Ldexp(1, -9-k)
	}
	return sys
}

func benchBlockSched(b *testing.B, n int) {
	sys := benchStepSystem(n)
	s := nbody.NewBlockSched(sys)
	block := make([]int, 0, n)
	// Warm out of the synchronised start so the bin member slices are
	// grown and blocks carry their steady-state sizes.
	for k := 0; k < 2048; k++ {
		t := s.NextTime()
		block = s.AppendBlock(sys, t, block[:0])
		for _, i := range block {
			sys.Time[i] = t
			s.Rebin(sys, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for k := 0; k < b.N; k++ {
		t := s.NextTime()
		block = s.AppendBlock(sys, t, block[:0])
		for _, i := range block {
			sys.Time[i] = t
			s.Rebin(sys, i)
		}
		steps += int64(len(block))
	}
	b.ReportMetric(float64(steps)/float64(b.N), "particles/block")
}

func benchBlockScan(b *testing.B, n int) {
	// The retired selection: O(N) MinTime plus an O(N) membership scan
	// per block, on the same step spectrum as benchBlockSched.
	sys := benchStepSystem(n)
	block := make([]int, 0, n)
	step := func() int {
		t := sys.MinTime()
		block = block[:0]
		for i := 0; i < sys.N; i++ {
			if sys.Time[i]+sys.Step[i] == t {
				block = append(block, i)
			}
		}
		for _, i := range block {
			sys.Time[i] = t
		}
		return len(block)
	}
	for k := 0; k < 2048; k++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for k := 0; k < b.N; k++ {
		steps += int64(step())
	}
	b.ReportMetric(float64(steps)/float64(b.N), "particles/block")
}

func BenchmarkBlockSchedStep64k(b *testing.B) { benchBlockSched(b, 65536) }
func BenchmarkBlockScanStep64k(b *testing.B)  { benchBlockScan(b, 65536) }
func BenchmarkBlockSchedStep1M(b *testing.B)  { benchBlockSched(b, 1048576) }
func BenchmarkBlockScanStep1M(b *testing.B)   { benchBlockScan(b, 1048576) }

// BenchmarkStreamLoadJ is a multi-page set's force path: a 64k Plummer
// j-set streamed through 4 chips of 4096 slots (4 fleet pages per force
// evaluation) for a 48-particle i-batch — the bounded-memory chip model
// evaluating a j-set 4× its combined capacity.
func BenchmarkStreamLoadJ(b *testing.B) {
	cfg := gboard.Default
	cfg.ChipsPerModule = 2
	cfg.ModulesPerBoard = 2
	cfg.Boards = 1 // 4 chips
	cfg.Chip.MemCapacity = 4096
	const n = 65536
	sys := model.Plummer(n, xrand.New(21))
	arr := gboard.New(cfg)
	defer arr.Close()
	bk := gbackend.New(arr)
	bk.Load(sys)

	const ni = 48
	ids := make([]int, ni)
	for q := range ids {
		ids[q] = q * (n / ni)
	}
	dst := make([]direct.Force, ni)
	// A few warm passes: the first sizes the page scratch and chip
	// planes, the next settle lazily allocated runtime structures
	// (worker-pool channel internals) so the timed section is clean.
	for k := 0; k < 3; k++ {
		bk.ForcesInto(dst, 0, ids, sys.Pos, sys.Vel, 1.0/64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		bk.ForcesInto(dst, 0, ids, sys.Pos, sys.Vel, 1.0/64)
	}
	b.ReportMetric(float64(ni)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkAhmadCohenBlockStep is the neighbour scheme in steady state:
// mostly irregular blocks touching ~32 neighbours each, with the full-j
// regular force amortized over ~8 irregular steps.
func BenchmarkAhmadCohenBlockStep(b *testing.B) {
	sys := model.Plummer(2048, xrand.New(13))
	it, err := ahmadcohen.New(sys, hermite.DefaultParams(1.0/64))
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 256; k++ {
		it.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for k := 0; k < b.N; k++ {
		steps += int64(it.Step().Size)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "particles/block")
	b.ReportMetric(it.MeanNeighbours(), "neighbours")
}
