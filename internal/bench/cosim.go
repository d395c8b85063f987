package bench

import (
	"fmt"

	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// RunCosim is the message-level validation companion to Figures 15/16: it
// executes the REAL parallel algorithms (copy, ring, 2D grid) over the
// simulated network at laptop-feasible N and reports virtual-time step
// rates. It demonstrates, with actual message traffic rather than the
// analytic model, that adding hosts at small N makes the machine slower —
// the paper's central small-N finding.
func RunCosim(o *Options) (Experiment, error) {
	e := Experiment{
		ID:    "cosim",
		Title: "message-level co-simulation: copy/ring/grid step rates vs host count",
		Paper: "multi-host slower than single-host at small N (Figures 15-16)",
	}
	n := 256
	until := 0.0625
	if o.Quick {
		n = 96
		until = 0.03125
	}
	eps := units.Softening(units.SoftConstant, n)

	type shape struct{ hosts, clusters int }
	for _, c := range []struct {
		label, algo string
		sweep       []shape
	}{
		{"copy algorithm", "copy", []shape{{1, 0}, {2, 0}, {4, 0}}},
		{"ring algorithm", "ring", []shape{{1, 0}, {2, 0}, {4, 0}}},
		{"2D grid algorithm", "grid", []shape{{1, 0}, {4, 0}}},
		// The production structure: copy across clusters × grid within.
		{"hybrid (clusters x 2D grid)", "hybrid", []shape{{4, 1}, {8, 2}}},
	} {
		series := Series{Label: c.label, YUnits: "steps/s (virtual)"}
		for _, sh := range c.sweep {
			res, err := parallel.Run(c.algo, model.Plummer(n, xrand.New(o.Seed)), until, sh.clusters, parallel.Config{
				Hosts:   sh.hosts,
				NIC:     simnet.NS83820,
				Machine: perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon),
				Params:  hermite.DefaultParams(eps),
			})
			if err != nil {
				return e, err
			}
			series.Points = append(series.Points, Point{N: sh.hosts, Value: res.StepsPerSecond()})
		}
		e.Series = append(e.Series, series)
	}

	e.Notes = append(e.Notes,
		fmt.Sprintf("N=%d, %s, NS83820 network; x = host count", n, units.SoftConstant),
		"rates fall with host count at this N: synchronization latency dominates, as in the paper")
	return e, nil
}

// All runs every experiment in DESIGN.md's index.
func All(o *Options) ([]Experiment, error) {
	var out []Experiment
	out = append(out, RunT1())
	for _, f := range []func(*Options) (Experiment, error){
		RunF13, RunF14, RunF15, RunF16, RunF17, RunF18, RunF19,
		RunApplications, RunTreecode, RunCosim,
		RunAblationMantissa, RunAblationAccumulator, RunAblationVMP,
		RunAblationMyrinet, RunAblationHostGrid, RunAblationGrape4,
		RunAblationNeighbourScheme, RunValidation,
	} {
		e, err := f(o)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}
