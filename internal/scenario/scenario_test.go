package scenario

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"grape6/internal/bench"
)

const (
	specDir     = "../../scenarios"
	baselineDir = "../../testdata/scenarios"
)

// quickOpts is shared across the executing tests so the measured
// workload fits (the expensive part) are built once per softening kind.
var quickOpts = bench.QuickOptions()

func testSpec() *Spec {
	return &Spec{
		ID: "t", Title: "t", Kind: "speed",
		Machines:   []MachineSpec{{NIC: "ns83820", Host: "athlon"}},
		Tolerance:  0.5,
		Tolerances: map[string]float64{"tight": 1e-9},
	}
}

func fig(series ...bench.Series) Figure {
	return Figure{ID: "t", Title: "t", Fidelity: "quick", Seed: 1, Series: series}
}

func s1(label string, pts ...bench.Point) bench.Series {
	return bench.Series{Label: label, Units: "Gflops", Points: pts}
}

// problemKinds extracts the finding kinds for compact assertions.
func problemKinds(ps []Problem) []string {
	ks := make([]string, len(ps))
	for i, p := range ps {
		ks[i] = p.Kind
	}
	return ks
}

func TestDiffClean(t *testing.T) {
	f := fig(s1("a", bench.Point{N: 1, Value: 2}, bench.Point{N: 2, Value: 4}))
	if ps := Diff(f, f, testSpec()); len(ps) != 0 {
		t.Fatalf("identical figures produced findings: %v", ps)
	}
}

func TestDiffMissingAndExtraSeries(t *testing.T) {
	got := fig(s1("a", bench.Point{N: 1, Value: 2}), s1("c", bench.Point{N: 1, Value: 2}))
	base := fig(s1("a", bench.Point{N: 1, Value: 2}), s1("b", bench.Point{N: 1, Value: 2}))
	ps := Diff(got, base, testSpec())
	if want := []string{"missing-series", "extra-series"}; !reflect.DeepEqual(problemKinds(ps), want) {
		t.Fatalf("got %v, want %v", ps, want)
	}
	if ps[0].Series != "b" || ps[1].Series != "c" {
		t.Errorf("series misattributed: %v", ps)
	}
}

func TestDiffMissingAndExtraPoint(t *testing.T) {
	got := fig(s1("a", bench.Point{N: 1, Value: 2}, bench.Point{N: 3, Value: 8}))
	base := fig(s1("a", bench.Point{N: 1, Value: 2}, bench.Point{N: 2, Value: 4}))
	ps := Diff(got, base, testSpec())
	if want := []string{"missing-point", "extra-point"}; !reflect.DeepEqual(problemKinds(ps), want) {
		t.Fatalf("got %v, want %v", ps, want)
	}
	if ps[0].N != 2 || ps[1].N != 3 {
		t.Errorf("points misattributed: %v", ps)
	}
}

// TestDiffToleranceBoundary pins the inclusive semantics: a deviation of
// exactly tol·|want| passes, anything beyond fails, and a zero baseline
// value compares absolutely.
func TestDiffToleranceBoundary(t *testing.T) {
	spec := testSpec() // default tol 0.5
	base := fig(s1("a", bench.Point{N: 1, Value: 2}))

	exact := fig(s1("a", bench.Point{N: 1, Value: 3})) // |3-2| = 1 = 0.5*2
	if ps := Diff(exact, base, spec); len(ps) != 0 {
		t.Errorf("exact-boundary deviation failed: %v", ps)
	}
	over := fig(s1("a", bench.Point{N: 1, Value: 3.0000001}))
	ps := Diff(over, base, spec)
	if !reflect.DeepEqual(problemKinds(ps), []string{"tolerance"}) {
		t.Errorf("just-over-boundary deviation passed: %v", ps)
	}

	// Per-series override beats the default.
	tight := fig(s1("tight", bench.Point{N: 1, Value: 2}))
	tightOff := fig(s1("tight", bench.Point{N: 1, Value: 2.001}))
	if ps := Diff(tightOff, tight, spec); !reflect.DeepEqual(problemKinds(ps), []string{"tolerance"}) {
		t.Errorf("per-series tolerance not applied: %v", ps)
	}

	// Zero baseline: absolute comparison.
	zero := fig(s1("a", bench.Point{N: 1, Value: 0}))
	within := fig(s1("a", bench.Point{N: 1, Value: 0.5}))
	if ps := Diff(within, zero, spec); len(ps) != 0 {
		t.Errorf("zero-baseline absolute pass failed: %v", ps)
	}
	outside := fig(s1("a", bench.Point{N: 1, Value: 0.51}))
	if ps := Diff(outside, zero, spec); !reflect.DeepEqual(problemKinds(ps), []string{"tolerance"}) {
		t.Errorf("zero-baseline absolute fail missed: %v", ps)
	}
}

func TestDiffNonFinite(t *testing.T) {
	base := fig(s1("a", bench.Point{N: 1, Value: 2}))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := fig(s1("a", bench.Point{N: 1, Value: v}))
		if ps := Diff(got, base, testSpec()); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
			t.Errorf("non-finite run value %v not flagged: %v", v, ps)
		}
		// And the other side: a corrupted baseline must fail too.
		if ps := Diff(base, got, testSpec()); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
			t.Errorf("non-finite baseline value %v not flagged: %v", v, ps)
		}
	}
	// NaN vs NaN is not a pass either.
	nan := fig(s1("a", bench.Point{N: 1, Value: math.NaN()}))
	if ps := Diff(nan, nan, testSpec()); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
		t.Errorf("NaN==NaN slipped through: %v", ps)
	}
}

func TestDiffMetadataMismatch(t *testing.T) {
	got := fig(s1("a", bench.Point{N: 1, Value: 2}))
	base := got
	base.Fidelity = "full"
	base.Seed = 2
	ps := Diff(got, base, testSpec())
	if len(ps) != 2 || ps[0].Kind != "meta" || ps[1].Kind != "meta" {
		t.Fatalf("fidelity/seed mismatch not flagged: %v", ps)
	}
}

func TestWriteRejectsNonFinite(t *testing.T) {
	f := fig(s1("a", bench.Point{N: 1, Value: math.NaN()}))
	var b strings.Builder
	if err := f.Write(&b); err == nil {
		t.Fatal("NaN figure serialised without error")
	}
}

// TestNoBaselineFailsLoudly: an experiment without a committed baseline
// is an error, never a vacuous pass.
func TestNoBaselineFailsLoudly(t *testing.T) {
	if _, err := LoadBaseline(t.TempDir(), "f13", "quick"); err == nil {
		t.Fatal("missing baseline did not error")
	} else if !strings.Contains(err.Error(), "no committed") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestBaselineRoundTrip: a written baseline loads back unchanged, and
// Paper — the text report's side note — is no part of the committed bytes.
func TestBaselineRoundTrip(t *testing.T) {
	f := fig(s1("a", bench.Point{N: 1, Value: 2.5}))
	withPaper := f
	withPaper.Paper = "the paper's reported result"
	var written [2][]byte
	for i, in := range []Figure{f, withPaper} {
		dir := t.TempDir()
		if err := WriteBaseline(dir, in); err != nil {
			t.Fatal(err)
		}
		back, err := LoadBaseline(dir, in.ID, in.Fidelity)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, back) {
			t.Fatalf("round trip mutated the figure:\n%+v\n%+v", f, back)
		}
		if written[i], err = os.ReadFile(BaselinePath(dir, in.ID, in.Fidelity)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(written[0], written[1]) {
		t.Errorf("Paper changed the committed bytes:\n%s\n%s", written[0], written[1])
	}
}

// TestSpecRoundTrip: every committed spec parses, validates, re-emits to
// an equivalent spec, and expands deterministically.
func TestSpecRoundTrip(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 8 {
		t.Fatalf("expected the figure matrix, found %d specs", len(specs))
	}
	for _, s := range specs {
		var b strings.Builder
		if err := s.Emit(&b); err != nil {
			t.Fatalf("%s: emit: %v", s.ID, err)
		}
		back, err := Parse([]byte(b.String()))
		if err != nil {
			t.Fatalf("%s: re-parse: %v", s.ID, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: parse -> emit -> parse not stable", s.ID)
		}
		c1, err := s.Expand()
		if err != nil {
			t.Fatalf("%s: expand: %v", s.ID, err)
		}
		c2, _ := s.Expand()
		c3, _ := back.Expand()
		if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(c1, c3) {
			t.Errorf("%s: expansion unstable across calls / round trip", s.ID)
		}
	}
}

func TestParseRejectsUnknownFieldsAndBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"id":"x","kind":"speed","machines":[{"nic":"ns83820","host":"athlon"}],"typo_field":1}`,
		"bad kind":       `{"id":"x","kind":"warp","machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"no machines":    `{"id":"x","kind":"speed"}`,
		"bad nic":        `{"id":"x","kind":"speed","machines":[{"nic":"token-ring","host":"athlon"}]}`,
		"bad host":       `{"id":"x","kind":"speed","machines":[{"nic":"ns83820","host":"i486"}]}`,
		"bad softening":  `{"id":"x","kind":"speed","softening":["cubed"],"machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"bad curve":      `{"id":"x","kind":"speed","machines":[{"curve":"spline","nic":"ns83820","host":"athlon"}]}`,
		"empty sweep":    `{"id":"x","kind":"cosim","n":8,"t_end":0.1,"machines":[{"algo":"ring","nic":"ns83820","host":"athlon"}]}`,
		"hybrid needs c": `{"id":"x","kind":"cosim","n":8,"t_end":0.1,"machines":[{"algo":"hybrid","nic":"ns83820","host":"athlon","sweep":[{"hosts":4}]}]}`,
		"no id":          `{"kind":"speed","machines":[{"nic":"ns83820","host":"athlon"}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestG6AMachinePeak pins the new GRAPE-6A row's silicon: one 4-chip
// card at 96 MHz is the 131.3 Gflops single-card peak of
// astro-ph/0504407.
func TestG6AMachinePeak(t *testing.T) {
	m := MachineSpec{Hosts: 1, Boards: 1, Chips: 4, ClockMHz: 96, NIC: "intel82540em", Host: "p4"}
	mm, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	peak := mm.PeakFlops() / 1e9
	if math.Abs(peak-131.3) > 0.2 {
		t.Fatalf("GRAPE-6A peak %.1f Gflops, want 131.3", peak)
	}
}

// TestCommittedBaselineDiffsClean runs every committed spec at quick
// fidelity against its committed baseline — the in-process version of
// the CI matrix job.
func TestCommittedBaselineDiffsClean(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		base, err := LoadBaseline(baselineDir, spec.ID, "quick")
		if err != nil {
			t.Fatal(err)
		}
		fig, err := Run(spec, quickOpts)
		if err != nil {
			t.Fatal(err)
		}
		if ps := Diff(fig, base, spec); len(ps) > 0 {
			t.Errorf("%s: committed baseline diff not clean:\n%s", spec.ID, FormatProblems(spec.ID, ps))
		}
	}
}

// TestBaselinesCommittedForEverySpec: the quick tier of the whole matrix
// must stay pinned — a new spec row without a baseline fails here, not
// silently in CI.
func TestBaselinesCommittedForEverySpec(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		path := BaselinePath(baselineDir, s.ID, "quick")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: no committed quick baseline (%v); run grape6bench -exp %s -quick -update", s.ID, err, s.ID)
		}
	}
}
