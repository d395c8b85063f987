package scenario

import (
	"fmt"
	"math"
	"strings"

	"grape6/internal/bench"
)

// Problem is one baseline-diff finding.
type Problem struct {
	Kind   string // "meta", "missing-series", "extra-series", "missing-point", "extra-point", "nonfinite", "tolerance"
	Series string
	N      int
	Got    float64
	Want   float64
	Tol    float64
	Msg    string
}

// String renders the finding for the CLI report.
func (p Problem) String() string {
	switch p.Kind {
	case "tolerance":
		rel := math.Abs(p.Got-p.Want) / math.Max(math.Abs(p.Want), 1e-300)
		return fmt.Sprintf("tolerance: series %q N=%d got %.9g want %.9g (rel %.3g > tol %.3g)",
			p.Series, p.N, p.Got, p.Want, rel, p.Tol)
	case "nonfinite":
		return fmt.Sprintf("nonfinite: series %q N=%d got %v want %v", p.Series, p.N, p.Got, p.Want)
	case "missing-point", "extra-point":
		return fmt.Sprintf("%s: series %q N=%d", p.Kind, p.Series, p.N)
	case "missing-series", "extra-series":
		return fmt.Sprintf("%s: %q", p.Kind, p.Series)
	default:
		return fmt.Sprintf("%s: %s", p.Kind, p.Msg)
	}
}

// Diff compares a freshly produced figure against the committed
// baseline under the spec's tolerance policy. It reports, in order:
// metadata mismatches (fidelity, seed — diffing a quick run against a
// full baseline is always a finding), series present in only one side,
// points present in only one side, non-finite values on either side,
// and values outside the per-series relative tolerance.
//
// The tolerance test is inclusive: |got − want| ≤ tol·|want| passes
// (with a baseline value of exactly zero, |got| ≤ tol passes). NaN and
// Inf never pass, whichever side they appear on.
func Diff(got, base Figure, spec *Spec) []Problem {
	var ps []Problem
	if got.Fidelity != base.Fidelity {
		ps = append(ps, Problem{Kind: "meta", Msg: fmt.Sprintf(
			"fidelity mismatch: run is %q, baseline is %q", got.Fidelity, base.Fidelity)})
	}
	if got.Seed != base.Seed {
		ps = append(ps, Problem{Kind: "meta", Msg: fmt.Sprintf(
			"seed mismatch: run used %d, baseline was pinned at %d", got.Seed, base.Seed)})
	}
	if got.ID != base.ID {
		ps = append(ps, Problem{Kind: "meta", Msg: fmt.Sprintf(
			"id mismatch: run is %q, baseline is %q", got.ID, base.ID)})
	}

	for _, bs := range base.Series {
		gs := got.FindSeries(bs.Label)
		if gs == nil {
			ps = append(ps, Problem{Kind: "missing-series", Series: bs.Label})
			continue
		}
		tol := spec.TolFor(bs.Label)
		ps = append(ps, diffSeries(*gs, bs, tol)...)
	}
	for _, gs := range got.Series {
		if base.FindSeries(gs.Label) == nil {
			ps = append(ps, Problem{Kind: "extra-series", Series: gs.Label})
		}
	}
	return ps
}

func diffSeries(got, base bench.Series, tol float64) []Problem {
	var ps []Problem
	gotAt := make(map[int]float64, len(got.Points))
	for _, p := range got.Points {
		gotAt[p.N] = p.Value
	}
	baseAt := make(map[int]float64, len(base.Points))
	for _, p := range base.Points {
		baseAt[p.N] = p.Value
	}
	for _, bp := range base.Points {
		g, ok := gotAt[bp.N]
		if !ok {
			ps = append(ps, Problem{Kind: "missing-point", Series: base.Label, N: bp.N})
			continue
		}
		if !isFinite(g) || !isFinite(bp.Value) {
			ps = append(ps, Problem{Kind: "nonfinite", Series: base.Label, N: bp.N, Got: g, Want: bp.Value})
			continue
		}
		if !withinTol(g, bp.Value, tol) {
			ps = append(ps, Problem{Kind: "tolerance", Series: base.Label, N: bp.N, Got: g, Want: bp.Value, Tol: tol})
		}
	}
	for _, gp := range got.Points {
		if _, ok := baseAt[gp.N]; !ok {
			ps = append(ps, Problem{Kind: "extra-point", Series: base.Label, N: gp.N})
			// A non-finite value in a point the baseline lacks is still a
			// harness bug worth naming.
			if !isFinite(gp.Value) {
				ps = append(ps, Problem{Kind: "nonfinite", Series: base.Label, N: gp.N, Got: gp.Value, Want: math.NaN()})
			}
		}
	}
	return ps
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// withinTol implements the inclusive relative-tolerance test.
func withinTol(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// FormatProblems renders a diff report, one finding per line, prefixed
// with the experiment id.
func FormatProblems(id string, ps []Problem) string {
	if len(ps) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%s: %s\n", id, p)
	}
	return b.String()
}
