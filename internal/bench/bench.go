// Package bench is the experiment harness: the Figure every experiment
// produces, the Options (fidelity, seed, cached workload fits) every
// experiment reads, and Runners — the tables, application estimates,
// ablations and validation run that have no scenario spec. Figs. 13-19 and
// the cosim sweep are specs under scenarios/, run by internal/scenario.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"grape6/internal/sched"
	"grape6/internal/units"
)

// Point is one datum of a series; N is the x value (particle count or,
// for cosim figures, host count).
type Point struct {
	N     int     `json:"n"`
	Value float64 `json:"v"`
}

// Series is one labelled curve.
type Series struct {
	Label  string  `json:"label"`
	Units  string  `json:"units,omitempty"`
	Points []Point `json:"points"`
}

// Figure is a reproduced table or figure, and the JSON committed under
// testdata/scenarios/ as its pin: one labelled series per curve, points
// sorted by N.
type Figure struct {
	ID       string   `json:"id"` // experiment id: "t1", "f13", ...
	Title    string   `json:"title"`
	Paper    string   `json:"-"`        // the paper's reported result; text report only
	Fidelity string   `json:"fidelity"` // "quick" or "full"
	Seed     uint64   `json:"seed"`
	Series   []Series `json:"series"`
	Notes    []string `json:"notes,omitempty"`
}

// Runner is one experiment id and the function that makes its figure.
type Runner struct {
	ID  string
	Fig func(*Options) (Figure, error)
}

// Run executes the experiment and returns its figure stamped.
func (r Runner) Run(o *Options) (Figure, error) {
	f, err := r.Fig(o)
	o.Stamp(&f)
	return f, err
}

// Runners is every experiment without a spec, in report order: a full
// report prints the spec figures after the first entry.
var Runners = []Runner{
	{ID: "t1", Fig: func(*Options) (Figure, error) { return RunT1(), nil }},
	{ID: "t5ab", Fig: RunApplications},
	{ID: "t5c", Fig: RunTreecode},
	{ID: "a1", Fig: RunAblationMantissa},
	{ID: "a2", Fig: RunAblationAccumulator},
	{ID: "a3", Fig: RunAblationVMP},
	{ID: "a5", Fig: RunAblationHostGrid},
	{ID: "a6", Fig: RunAblationGrape4},
	{ID: "a7", Fig: RunAblationNeighbourScheme},
	{ID: "v1", Fig: RunValidation},
}

// Seed makes the stochastic parts of every experiment reproducible: the
// paper's conference date. Figure.Seed records it in each pin.
const Seed = 20031115

// Options tunes the harness cost. It is safe for concurrent use: callers
// may fit several softenings' workloads at once.
type Options struct {
	// Quick shrinks the measured workloads so the whole suite runs in
	// seconds (used by unit tests and -bench smoke runs).
	Quick bool

	mu        sync.Mutex                              // guards workloads
	workloads map[units.SofteningKind]*sched.Workload // fit cache, by softening kind
}

// DefaultOptions returns the full-fidelity configuration.
func DefaultOptions() *Options {
	return &Options{}
}

// QuickOptions returns the fast configuration for tests.
func QuickOptions() *Options {
	return &Options{Quick: true}
}

// measureNs returns the particle counts used for functional workload
// measurement.
func (o *Options) measureNs() []int {
	if o.Quick {
		// The block-statistics fit needs at least a decade of N above the
		// tiny-N regime, or the extrapolated mean block size comes out far
		// too flat (the paper's nb ∝ N behaviour emerges above N ≈ 256).
		return []int{256, 512, 1024}
	}
	return sched.DefaultNs
}

// measureDuration returns the simulated time per workload measurement.
func (o *Options) measureDuration() float64 {
	if o.Quick {
		return 0.25
	}
	return 0.5
}

// Fidelity names the tier of this configuration.
func (o *Options) Fidelity() string {
	if o.Quick {
		return "quick"
	}
	return "full"
}

// Stamp puts a figure in its committed form: this configuration's
// fidelity and seed recorded, every series sorted by N.
func (o *Options) Stamp(f *Figure) {
	f.Fidelity, f.Seed = o.Fidelity(), Seed
	for _, s := range f.Series {
		sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].N < s.Points[j].N })
	}
}

// CurveNs returns the N grid of the model-driven scenario curves at this
// fidelity.
func (o *Options) CurveNs() []int {
	if o.Quick {
		return []int{1000, 3000, 10000, 30000, 100000, 300000, 1000000}
	}
	return []int{
		500, 1000, 2000, 3000, 5000, 10000, 20000, 30000, 50000,
		100000, 200000, 300000, 500000, 1000000, 1800000,
	}
}

// fitWorkload is the fit Workload caches; tests swap in a cheaper one.
var fitWorkload = sched.FitWorkload

// Workload returns (building and caching on first use) the fitted block
// statistics for a softening choice. The fit runs outside the lock, so
// fits of different kinds proceed side by side; if two calls fit the same
// kind at once, the first to finish is cached and both return it.
func (o *Options) Workload(kind units.SofteningKind) (*sched.Workload, error) {
	o.mu.Lock()
	w, ok := o.workloads[kind]
	o.mu.Unlock()
	if ok {
		return w, nil
	}
	w, err := fitWorkload(kind, o.measureNs(), o.measureDuration(), Seed)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if cached, ok := o.workloads[kind]; ok {
		return cached, nil
	}
	if o.workloads == nil {
		o.workloads = make(map[units.SofteningKind]*sched.Workload)
	}
	o.workloads[kind] = w
	return w, nil
}

// Format renders the figure as an aligned text report, points in the
// order held (Stamp sorts them).
func (e Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	if e.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", e.Paper)
	}
	for _, s := range e.Series {
		fmt.Fprintf(w, "\n-- %s", s.Label)
		if s.Units != "" {
			fmt.Fprintf(w, " [%s]", s.Units)
		}
		fmt.Fprintln(w)
		for _, p := range s.Points {
			fmt.Fprintf(w, "  N=%-9d %.6g\n", p.N, p.Value)
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Write emits the committed JSON form (indented, trailing newline).
// Non-finite values are rejected here rather than silently mangled: a
// NaN or Inf in a figure is a harness bug that must fail loudly.
func (e Figure) Write(w io.Writer) error {
	for _, s := range e.Series {
		for _, p := range s.Points {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				return fmt.Errorf("figure %s: non-finite value %v in series %q at N=%d",
					e.ID, p.Value, s.Label, p.N)
			}
		}
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// FindSeries returns the series with the given label, or nil.
func (e Figure) FindSeries(label string) *Series {
	for i := range e.Series {
		if e.Series[i].Label == label {
			return &e.Series[i]
		}
	}
	return nil
}

// ValueAt returns the value at the given N of a series, and whether it
// exists.
func (s *Series) ValueAt(n int) (float64, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p.Value, true
		}
	}
	return 0, false
}
