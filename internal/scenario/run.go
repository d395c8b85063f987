package scenario

import (
	"fmt"

	"grape6/internal/bench"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/timing"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// Seed offsets of the synthetic-trace streams, one per kind; the pins
// hold them.
const (
	speedSeedOffset = 17
	tpsSeedOffset   = 23
)

// Run executes the spec's cross-product through the existing harness
// layers and returns the figure: one series per expanded cell, points
// sorted by x. A go-kind spec's figure is its bench.Experiments
// function's series, and the spec's notes followed by the computed ones.
func Run(s *Spec, o *bench.Options) (Figure, error) {
	cells, err := s.Expand()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID: s.ID, Title: s.Title, Paper: s.Paper,
		Notes: append([]string(nil), s.Notes...),
	}
	if s.Kind == "go" {
		f, err := bench.Experiments[s.ID](o)
		if err != nil {
			return Figure{}, fmt.Errorf("scenario %s: %w", s.ID, err)
		}
		fig.Series, fig.Notes = f.Series, append(fig.Notes, f.Notes...)
		o.Stamp(&fig)
		return fig, nil
	}
	if s.Kind != "cosim" {
		if err := fitWorkloads(s, o, cells); err != nil {
			return Figure{}, err
		}
	}
	for _, c := range cells {
		var fs bench.Series
		if s.Kind == "cosim" {
			fs, err = runCosimCell(s, o, c)
		} else {
			fs, err = runModelCell(s, o, c)
		}
		if err != nil {
			return Figure{}, fmt.Errorf("scenario %s: series %q: %w", s.ID, c.Label, err)
		}
		fig.Series = append(fig.Series, fs)
	}
	o.Stamp(&fig)
	return fig, nil
}

// fitWorkloads fits, side by side, every softening the model cells need,
// so the cell loop reads each from o's cache. A failed fit is reported
// against the first cell that needs its softening.
func fitWorkloads(s *Spec, o *bench.Options, cells []Cell) error {
	var first []Cell // the first cell of each softening
	seen := make(map[units.SofteningKind]bool)
	for _, c := range cells {
		if !seen[c.Soft] {
			seen[c.Soft] = true
			first = append(first, c)
		}
	}
	errs := make([]error, len(first))
	direct.ParallelFor(len(first), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, errs[i] = o.Workload(first[i].Soft)
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("scenario %s: series %q: %w", s.ID, first[i].Label, err)
		}
	}
	return nil
}

// runModelCell produces one speed or time-per-step series: measured and
// synthetic traces through the timing simulator for trace curves, the
// analytic mean-block-size prediction for model curves.
func runModelCell(s *Spec, o *bench.Options, c Cell) (bench.Series, error) {
	w, err := o.Workload(c.Soft)
	if err != nil {
		return bench.Series{}, err
	}
	fs := bench.Series{Label: c.Label}
	scale := 1.0
	seedOff := uint64(tpsSeedOffset)
	switch s.Kind {
	case "speed":
		fs.Units = "Gflops"
		scale = 1e9
		seedOff = speedSeedOffset
		if s.Unit == "Tflops" {
			fs.Units = "Tflops"
			scale = 1e12
		}
	case "timeperstep":
		fs.Units = "s/step"
	}

	value := func(rep timing.Report) float64 {
		if s.Kind == "speed" {
			return rep.SpeedFlops() / scale
		}
		return rep.TimePerStep()
	}
	modelValue := func(n int) float64 {
		nb := w.MeanBlockSize(n)
		if s.Kind == "speed" {
			return c.Machine.Speed(n, nb) / scale
		}
		return c.Machine.TimePerStep(n, nb)
	}

	ns := o.CurveNs()
	if c.Curve == "model" {
		for _, n := range ns {
			fs.Points = append(fs.Points, bench.Point{N: n, Value: modelValue(n)})
		}
		return fs, nil
	}
	// Trace curve: functional (measured) traces at laptop-feasible N,
	// power-law-extrapolated synthetic traces at paper scale.
	for _, tr := range w.Measured {
		fs.Points = append(fs.Points, bench.Point{N: tr.N, Value: value(timing.Simulate(c.Machine, tr))})
	}
	rng := xrand.New(bench.Seed + seedOff)
	for _, n := range ns {
		tr := w.Synthetic(n, 0.01, rng.Split())
		fs.Points = append(fs.Points, bench.Point{N: n, Value: value(timing.Simulate(c.Machine, tr))})
	}
	return fs, nil
}

// runCosimCell executes the real parallel algorithms over the simulated
// network: one point per (hosts, clusters) sweep entry, the series value
// being the virtual-time step rate.
func runCosimCell(s *Spec, o *bench.Options, c Cell) (bench.Series, error) {
	n := s.N
	tEnd := s.TEnd
	if o.Quick {
		if s.QuickN > 0 {
			n = s.QuickN
		}
		if s.QuickTEnd > 0 {
			tEnd = s.QuickTEnd
		}
	}
	if n <= 0 || tEnd <= 0 {
		return bench.Series{}, fmt.Errorf("cosim kind needs positive n and t_end")
	}
	soft := units.SoftConstant
	if len(s.Softening) > 0 {
		soft, _ = LookupSoftening(s.Softening[0])
	}
	eps := units.Softening(soft, n)
	params := hermite.DefaultParams(eps)

	fs := bench.Series{Label: c.Label, Units: "steps/s (virtual)"}
	for _, sw := range c.Sweep {
		sys := model.Plummer(n, xrand.New(bench.Seed))
		cfg := parallel.Config{
			Hosts:   sw.Hosts,
			NIC:     c.NIC,
			Machine: perfmodel.SingleNode(c.NIC, c.Host),
			Params:  params,
		}
		res, err := parallel.Run(c.Algo, sys, tEnd, sw.Clusters, cfg)
		if err != nil {
			return bench.Series{}, err
		}
		fs.Points = append(fs.Points, bench.Point{N: sw.Hosts, Value: res.StepsPerSecond()})
	}
	return fs, nil
}
