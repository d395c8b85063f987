package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"grape6/internal/bench"
)

// Problem is one way a figure differs from its pin.
type Problem struct {
	Kind   string // "meta", "missing-series", "extra-series", "units", "missing-point", "extra-point", "nonfinite", "value"
	Series string
	N      int
	Got    float64
	Want   float64
	Msg    string
}

// String renders the finding for the CLI report. A value is printed in
// the shortest form that reads back to the same float64, so got and want
// are exact.
func (p Problem) String() string {
	switch p.Kind {
	case "value", "nonfinite":
		return fmt.Sprintf("%s: series %q N=%d got %v want %v", p.Kind, p.Series, p.N, p.Got, p.Want)
	case "missing-point", "extra-point":
		return fmt.Sprintf("%s: series %q N=%d", p.Kind, p.Series, p.N)
	case "missing-series", "extra-series":
		return fmt.Sprintf("%s: %q", p.Kind, p.Series)
	case "units":
		return fmt.Sprintf("units: series %q %s", p.Series, p.Msg)
	default:
		return fmt.Sprintf("%s: %s", p.Kind, p.Msg)
	}
}

// Diff compares a figure with its pin over every field Write emits: it
// is clean only when the figure would Write the pin's bytes. (Paper is
// not written, so it is not compared.) The findings come in order: the
// id, title, fidelity, seed and notes; a label that names two series;
// series present in only one figure, or both sets in another order; and
// per series its units, points present in only one, non-finite values,
// and values that differ in any bit. Failing all of these, the two
// figures' JSON is compared, which still tells an empty list from a
// missing one. Every figure, spec or runner, is diffed by this one rule,
// so spec is not read; it stays in the signature for benchmark/fig13.go.
func Diff(got, base Figure, _ *Spec) []Problem {
	var ps []Problem
	meta := func(format string, args ...any) {
		ps = append(ps, Problem{Kind: "meta", Msg: fmt.Sprintf(format, args...)})
	}
	if got.ID != base.ID {
		meta("id mismatch: run is %q, pin is %q", got.ID, base.ID)
	}
	if got.Title != base.Title {
		meta("title mismatch: run is %q, pin is %q", got.Title, base.Title)
	}
	if got.Fidelity != base.Fidelity {
		meta("fidelity mismatch: run is %q, pin is %q", got.Fidelity, base.Fidelity)
	}
	if got.Seed != base.Seed {
		meta("seed mismatch: run used %d, pin was made with %d", got.Seed, base.Seed)
	}
	if !slices.Equal(got.Notes, base.Notes) {
		meta("notes mismatch: run has %q, pin has %q", got.Notes, base.Notes)
	}
	for _, l := range repeatedLabels(got) {
		meta("series label %q repeats in the run", l)
	}
	for _, l := range repeatedLabels(base) {
		meta("series label %q repeats in the pin", l)
	}

	sameSet := true
	for _, bs := range base.Series {
		gs := got.FindSeries(bs.Label)
		if gs == nil {
			ps = append(ps, Problem{Kind: "missing-series", Series: bs.Label})
			sameSet = false
			continue
		}
		if gs.Units != bs.Units {
			ps = append(ps, Problem{Kind: "units", Series: bs.Label, Msg: fmt.Sprintf("got %q want %q", gs.Units, bs.Units)})
		}
		ps = append(ps, diffPoints(*gs, bs)...)
	}
	for _, gs := range got.Series {
		if base.FindSeries(gs.Label) == nil {
			ps = append(ps, Problem{Kind: "extra-series", Series: gs.Label})
			sameSet = false
		}
	}
	if gl, bl := labels(got), labels(base); sameSet && !slices.Equal(gl, bl) {
		meta("series order: run has %q, pin has %q", gl, bl)
	}
	if len(ps) == 0 {
		var g, b strings.Builder
		if got.Write(&g) != nil || base.Write(&b) != nil || g.String() != b.String() {
			meta("the figures write different JSON")
		}
	}
	return ps
}

// diffPoints walks two series' points in step, both in the N order Stamp
// leaves them, so it is clean only when they hold the same points in the
// same order.
func diffPoints(got, base bench.Series) []Problem {
	var ps []Problem
	g, b := got.Points, base.Points
	for len(g) > 0 || len(b) > 0 {
		switch {
		case len(g) == 0 || (len(b) > 0 && b[0].N < g[0].N):
			ps = append(ps, Problem{Kind: "missing-point", Series: base.Label, N: b[0].N})
			b = b[1:]
		case len(b) == 0 || g[0].N < b[0].N:
			ps = append(ps, Problem{Kind: "extra-point", Series: base.Label, N: g[0].N})
			// A non-finite value in a point the pin lacks is still a
			// harness bug worth naming.
			if !isFinite(g[0].Value) {
				ps = append(ps, Problem{Kind: "nonfinite", Series: base.Label, N: g[0].N, Got: g[0].Value, Want: math.NaN()})
			}
			g = g[1:]
		default:
			p := Problem{Series: base.Label, N: b[0].N, Got: g[0].Value, Want: b[0].Value}
			if !isFinite(p.Got) || !isFinite(p.Want) {
				p.Kind = "nonfinite"
				ps = append(ps, p)
			} else if p.Got != p.Want || math.Signbit(p.Got) != math.Signbit(p.Want) { // -0 writes "-0"
				p.Kind = "value"
				ps = append(ps, p)
			}
			g, b = g[1:], b[1:]
		}
	}
	return ps
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// labels returns a figure's series labels in order.
func labels(f Figure) []string {
	ls := make([]string, len(f.Series))
	for i, s := range f.Series {
		ls[i] = s.Label
	}
	return ls
}

// repeatedLabels returns each label that names more than one series.
func repeatedLabels(f Figure) []string {
	var rep []string
	seen := make(map[string]int, len(f.Series))
	for _, s := range f.Series {
		if seen[s.Label]++; seen[s.Label] == 2 {
			rep = append(rep, s.Label)
		}
	}
	return rep
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
