// Package sched supplies the workload statistics that drive the paper's
// performance figures: the number of individual steps and block steps per
// unit of simulated time as a function of N and softening.
//
// For laptop-feasible N these statistics are MEASURED by running the real
// Hermite integrator on a Plummer model (the paper's benchmark workload);
// for paper-scale N (10^5-2×10^6, where a functional O(N²) run is out of
// reach without the actual hardware) they are extrapolated with power-law
// fits to the measured points. This measured-then-extrapolated split is
// the substitution documented in DESIGN.md: the paper's own analysis
// (Section 4.2) rests on the same scaling facts — the number of particles
// per block grows roughly linearly with N while the number of blocks per
// unit time grows slowly.
package sched

import (
	"fmt"
	"math"

	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// Trace records the block structure of an integration.
type Trace struct {
	N        int
	Kind     units.SofteningKind
	Eps      float64
	Duration float64 // simulated time units covered
	Blocks   []hermite.BlockStat
}

// TotalSteps returns the number of individual particle steps in the trace.
func (t *Trace) TotalSteps() int64 {
	var s int64
	for _, b := range t.Blocks {
		s += int64(b.Size)
	}
	return s
}

// MeanBlockSize returns the average number of particles per block.
func (t *Trace) MeanBlockSize() float64 {
	if len(t.Blocks) == 0 {
		return 0
	}
	return float64(t.TotalSteps()) / float64(len(t.Blocks))
}

// BlocksPerUnitTime returns the block-step rate.
func (t *Trace) BlocksPerUnitTime() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(len(t.Blocks)) / t.Duration
}

// StepsPerUnitTime returns the individual-step rate.
func (t *Trace) StepsPerUnitTime() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.TotalSteps()) / t.Duration
}

// Record integrates an N-particle Plummer model for the given duration
// with the reference backend and returns its block trace.
func Record(n int, kind units.SofteningKind, duration float64, seed uint64) (*Trace, error) {
	sys := model.Plummer(n, xrand.New(seed))
	eps := units.Softening(kind, n)
	it, err := hermite.New(sys, hermite.NewDirectBackend(), hermite.DefaultParams(eps))
	if err != nil {
		return nil, err
	}
	tr := &Trace{N: n, Kind: kind, Eps: eps, Duration: duration}
	for it.NextBlockTime() <= duration {
		tr.Blocks = append(tr.Blocks, it.Step())
	}
	return tr, nil
}

// Workload is a power-law model of the block statistics, fitted to
// measured traces:
//
//	steps/unit-time  ≈ exp(stepsA) · N^stepsB,
//	blocks/unit-time ≈ exp(blocksA) · N^blocksB.
type Workload struct {
	Kind     units.SofteningKind
	Measured []*Trace

	StepsA, StepsB   float64
	BlocksA, BlocksB float64
}

// FitWorkload measures traces at the given particle counts (each over
// `duration` time units) and fits the power laws. At least two distinct N
// are required. The integrations are independent, so they run side by
// side on direct.ParallelFor (one after another on the caller at
// GOMAXPROCS=1); the traces keep the order of ns, and when several
// integrations fail the error of the lowest index is returned.
func FitWorkload(kind units.SofteningKind, ns []int, duration float64, seed uint64) (*Workload, error) {
	if len(ns) < 2 {
		return nil, fmt.Errorf("sched: need ≥2 particle counts, got %d", len(ns))
	}
	traces := make([]*Trace, len(ns))
	errs := make([]error, len(ns))
	direct.ParallelFor(len(ns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tr, err := Record(ns[i], kind, duration, seed+uint64(i))
			if err == nil && len(tr.Blocks) == 0 {
				err = fmt.Errorf("sched: empty trace at N=%d", ns[i])
			}
			traces[i], errs[i] = tr, err
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w := &Workload{Kind: kind, Measured: traces}
	if err := w.fit(); err != nil {
		return nil, err
	}
	return w, nil
}

// FromTraces builds a workload from pre-recorded traces (used by tests and
// by callers that already have traces in hand).
func FromTraces(kind units.SofteningKind, traces []*Trace) (*Workload, error) {
	if len(traces) < 2 {
		return nil, fmt.Errorf("sched: need ≥2 traces, got %d", len(traces))
	}
	w := &Workload{Kind: kind, Measured: traces}
	if err := w.fit(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Workload) fit() error {
	xs := make([]float64, len(w.Measured))
	ys := make([]float64, len(w.Measured))
	zs := make([]float64, len(w.Measured))
	for i, tr := range w.Measured {
		if tr.StepsPerUnitTime() <= 0 || tr.BlocksPerUnitTime() <= 0 {
			return fmt.Errorf("sched: degenerate trace at N=%d", tr.N)
		}
		xs[i] = math.Log(float64(tr.N))
		ys[i] = math.Log(tr.StepsPerUnitTime())
		zs[i] = math.Log(tr.BlocksPerUnitTime())
	}
	var err error
	w.StepsA, w.StepsB, err = linfit(xs, ys)
	if err != nil {
		return err
	}
	w.BlocksA, w.BlocksB, err = linfit(xs, zs)
	return err
}

// linfit is an ordinary least-squares fit y = a + b·x.
func linfit(xs, ys []float64) (a, b float64, err error) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("sched: singular fit (all N equal?)")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, nil
}

// StepsPerUnitTime predicts the individual-step rate at particle count n.
func (w *Workload) StepsPerUnitTime(n int) float64 {
	return math.Exp(w.StepsA) * math.Pow(float64(n), w.StepsB)
}

// BlocksPerUnitTime predicts the block rate at particle count n.
func (w *Workload) BlocksPerUnitTime(n int) float64 {
	return math.Exp(w.BlocksA) * math.Pow(float64(n), w.BlocksB)
}

// MeanBlockSize predicts the mean particles per block at count n, clamped
// to [1, n].
func (w *Workload) MeanBlockSize(n int) float64 {
	b := w.BlocksPerUnitTime(n)
	if b <= 0 {
		return 1
	}
	s := w.StepsPerUnitTime(n) / b
	if s < 1 {
		return 1
	}
	if s > float64(n) {
		return float64(n)
	}
	return s
}

// Synthetic generates a block trace for particle count n covering the
// given duration: the block count follows BlocksPerUnitTime, and the block
// sizes are drawn from the empirical size distribution of the largest
// measured trace, rescaled so their mean matches MeanBlockSize(n). This
// preserves the strong size skew of real block schedules (many tiny
// blocks, a few system-wide ones) that a constant-size model would miss.
func (w *Workload) Synthetic(n int, duration float64, rng *xrand.Source) *Trace {
	ref := w.Measured[0]
	for _, tr := range w.Measured[1:] {
		if tr.N > ref.N {
			ref = tr
		}
	}
	nBlocks := int(math.Round(w.BlocksPerUnitTime(n) * duration))
	if nBlocks < 1 {
		nBlocks = 1
	}
	scale := w.MeanBlockSize(n) / ref.MeanBlockSize()

	tr := &Trace{N: n, Kind: w.Kind, Eps: units.Softening(w.Kind, n), Duration: duration}
	tr.Blocks = make([]hermite.BlockStat, nBlocks)
	dt := duration / float64(nBlocks)
	for i := 0; i < nBlocks; i++ {
		s := ref.Blocks[rng.Intn(len(ref.Blocks))].Size
		size := int(math.Round(float64(s) * scale))
		if size < 1 {
			size = 1
		}
		if size > n {
			size = n
		}
		tr.Blocks[i] = hermite.BlockStat{Time: float64(i+1) * dt, Size: size}
	}
	return tr
}

// DefaultNs are the particle counts used for workload measurement: small
// enough to integrate functionally in seconds, spread over a decade for a
// stable fit.
var DefaultNs = []int{256, 512, 1024, 2048}
