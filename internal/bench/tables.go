package bench

import (
	"fmt"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/model"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/tree"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// runT1 reproduces the hardware inventory of Sections 1-2: peak speeds of
// chip, board, cluster and full machine under the 57-flops convention.
func runT1(*Options) (Figure, error) {
	var e Figure
	c := chip.Default
	s := Series{Label: "peak speed", Units: "Gflops"}
	s.Points = append(s.Points,
		Point{N: 1, Value: c.PeakFlops() / 1e9}, // one chip
		Point{N: 32, Value: board.Config{Chip: c, ChipsPerModule: 4, ModulesPerBoard: 8, Boards: 1, ReduceCyclesPerStage: 4}.PeakFlops() / 1e9},
		Point{N: 512, Value: perfmodel.MultiNode(4, simnet.NS83820, perfmodel.Athlon).PeakFlops() / 1e9},
		Point{N: 2048, Value: perfmodel.MultiCluster(4, simnet.NS83820, perfmodel.Athlon).PeakFlops() / 1e9},
	)
	e.Series = append(e.Series, s)
	e.Notes = append(e.Notes, fmt.Sprintf("i-parallelism per chip: %d (6 pipelines x 8-way VMP)", c.IBatch()))
	return e, nil
}

// runApplications reproduces the Section 5 application accounting: the
// Kuiper-belt and black-hole-binary production runs. When a workload fit
// is available the per-step cost is weighted over the block-size
// distribution (EstimateApplicationTrace); otherwise the mean-block model
// is used.
func runApplications(o *Options) (Figure, error) {
	var e Figure
	w, err := o.Workload(units.SoftConstant)
	if err != nil {
		return e, err
	}
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	hours := Series{Label: "wall-clock", Units: "hours"}
	tflops := Series{Label: "sustained speed", Units: "Tflops"}
	rng := xrand.New(Seed + 41)
	for _, app := range []timing.Application{timing.KuiperBelt, timing.BHBinary} {
		tr := w.Synthetic(app.N, 0.01, rng.Split())
		rep := timing.EstimateApplicationTrace(m, app, tr)
		hours.Points = append(hours.Points, Point{N: app.N, Value: rep.Hours()})
		tflops.Points = append(tflops.Points, Point{N: app.N, Value: rep.Tflops})
		e.Notes = append(e.Notes, fmt.Sprintf("%s: %.4g total flops (paper accounting)",
			app.Name, rep.Flops))
	}
	e.Series = append(e.Series, hours, tflops)
	return e, nil
}

// runTreecode reproduces the Section 5 treecode comparison: particle steps
// per second of GRAPE-6 against the treecodes the paper cites, with the
// shared-vs-individual timestep and accuracy corrections applied; plus the
// work per particle step of this machine's own Barnes-Hut implementation,
// counted in tree interaction terms.
func runTreecode(o *Options) (Figure, error) {
	var e Figure

	// Model-side GRAPE-6 rate at the application scale.
	w, err := o.Workload(units.SoftConstant)
	if err != nil {
		return e, err
	}
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	n := 1_800_000
	grapeRate := 1 / m.TimePerStep(n, w.MeanBlockSize(n))

	s := Series{Label: "particle steps per second", Units: "steps/s"}
	s.Points = append(s.Points,
		Point{N: 1, Value: grapeRate},        // GRAPE-6 (this model)
		Point{N: 2, Value: 1e4},              // Gadget on 16-node T3E (paper-quoted)
		Point{N: 3, Value: 2.55e6},           // Warren et al., ASCI Red, shared step (paper-quoted)
		Point{N: 4, Value: 2.55e6 / 100 / 5}, // ASCI Red corrected: /100 step count, /5 accuracy
	)
	e.Series = append(e.Series, s)

	// This machine's own treecode on a Plummer model: the mean length of
	// the interaction list a particle step walks. A count, so the figure
	// is the same on every host.
	nLocal := 4096
	if o.Quick {
		nLocal = 1024
	}
	sys := model.Plummer(nLocal, xrand.New(Seed))
	t, err := tree.Build(sys.Pos, sys.Mass, tree.DefaultConfig(units.Softening(units.SoftConstant, nLocal)))
	if err != nil {
		return e, err
	}
	terms := 0
	for _, f := range t.AccelAll(sys.Pos) {
		terms += f.Interactions
	}
	local := Series{Label: "interactions per particle step", Units: "terms"}
	local.Points = append(local.Points, Point{N: nLocal, Value: float64(terms) / float64(nLocal)})
	e.Series = append(e.Series, local)

	// Step-ratio evidence for the x100 claim: measure the individual-step
	// distribution of a Hermite run and report harmonic-mean/min ratio.
	ratioN := 512
	if o.Quick {
		ratioN = 256
	}
	hsys := model.Plummer(ratioN, xrand.New(Seed+1))
	ratio, err := measureStepRatio(hsys)
	if err != nil {
		return e, err
	}
	e.Notes = append(e.Notes, fmt.Sprintf(
		"measured harmonic-mean/min timestep ratio at N=%d: %.1f (grows with N; paper: >100 at 2e6)",
		ratioN, ratio))
	return e, nil
}
