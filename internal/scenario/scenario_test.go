package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grape6/internal/bench"
)

const (
	specDir = "../../scenarios"
	pinDir  = "../../testdata/scenarios"
)

func fig(series ...bench.Series) Figure {
	return Figure{ID: "t", Title: "t", Fidelity: "quick", Seed: 1, Series: series, Notes: []string{"x = N"}}
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
	if ps := Diff(f, f, nil); len(ps) != 0 {
		t.Fatalf("identical figures produced findings: %v", ps)
	}
}

func TestDiffMissingAndExtraSeries(t *testing.T) {
	got := fig(s1("a", bench.Point{N: 1, Value: 2}), s1("c", bench.Point{N: 1, Value: 2}))
	base := fig(s1("a", bench.Point{N: 1, Value: 2}), s1("b", bench.Point{N: 1, Value: 2}))
	ps := Diff(got, base, nil)
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
	ps := Diff(got, base, nil)
	if want := []string{"missing-point", "extra-point"}; !reflect.DeepEqual(problemKinds(ps), want) {
		t.Fatalf("got %v, want %v", ps, want)
	}
	if ps[0].N != 2 || ps[1].N != 3 {
		t.Errorf("points misattributed: %v", ps)
	}
}

// TestDiffIsExact: a figure diffs clean against itself and against its
// own Write-and-read-back, and a change to any field Write emits is a
// finding — one ulp in one value, the units, the title, a note, the
// series order, a repeated label, an empty list of points.
func TestDiffIsExact(t *testing.T) {
	base := fig(s1("a", bench.Point{N: 1, Value: 2}, bench.Point{N: 2, Value: 0.1}), s1("b", bench.Point{N: 1, Value: 0}))
	if ps := Diff(base, base, nil); len(ps) != 0 {
		t.Fatalf("a figure against itself: %v", ps)
	}
	dir := t.TempDir()
	if err := WriteBaseline(dir, base); err != nil {
		t.Fatal(err)
	}
	pin, err := LoadBaseline(dir, base.ID, base.Fidelity)
	if err != nil {
		t.Fatal(err)
	}
	if ps := Diff(base, pin, nil); len(ps) != 0 {
		t.Fatalf("a figure against its written pin: %v", ps)
	}

	// clone copies the series so a perturbation leaves base alone.
	clone := func() Figure {
		f := base
		f.Series = nil
		for _, s := range base.Series {
			s.Points = append([]bench.Point(nil), s.Points...)
			f.Series = append(f.Series, s)
		}
		f.Notes = append([]string(nil), base.Notes...)
		return f
	}
	for _, tc := range []struct {
		name, kind string
		change     func(*Figure)
	}{
		{"one ulp", "value", func(f *Figure) { f.Series[0].Points[1].Value = math.Nextafter(0.1, 1) }},
		{"negative zero", "value", func(f *Figure) { f.Series[1].Points[0].Value = math.Copysign(0, -1) }},
		{"units", "units", func(f *Figure) { f.Series[1].Units = "Tflops" }},
		{"title", "meta", func(f *Figure) { f.Title += " (renamed)" }},
		{"note", "meta", func(f *Figure) { f.Notes[0] = "x = host count" }},
		{"series order", "meta", func(f *Figure) { f.Series[0], f.Series[1] = f.Series[1], f.Series[0] }},
		{"repeated label", "meta", func(f *Figure) { f.Series[1].Label = "a" }},
	} {
		got := clone()
		tc.change(&got)
		ps := Diff(got, base, nil)
		if len(ps) == 0 || ps[0].Kind != tc.kind {
			t.Errorf("%s: findings %v, want a %s finding first", tc.name, ps, tc.kind)
		}
	}
	// Write gives "points": null for no points and [] for an empty list.
	none := fig(s1("c"))
	empty := fig(s1("c"))
	empty.Series[0].Points = []bench.Point{}
	if ps := Diff(empty, none, nil); !reflect.DeepEqual(problemKinds(ps), []string{"meta"}) {
		t.Errorf("an empty list against a missing one: %v", ps)
	}
	// A value finding reports both values exactly.
	got := clone()
	got.Series[0].Points[1].Value = math.Nextafter(0.1, 1)
	if ps := Diff(got, base, nil); len(ps) != 1 || ps[0].String() != `value: series "a" N=2 got 0.10000000000000002 want 0.1` {
		t.Errorf("one-ulp finding reads %v", ps)
	}
}

func TestDiffNonFinite(t *testing.T) {
	base := fig(s1("a", bench.Point{N: 1, Value: 2}))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := fig(s1("a", bench.Point{N: 1, Value: v}))
		if ps := Diff(got, base, nil); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
			t.Errorf("non-finite run value %v not flagged: %v", v, ps)
		}
		// And the other side: a corrupted baseline must fail too.
		if ps := Diff(base, got, nil); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
			t.Errorf("non-finite baseline value %v not flagged: %v", v, ps)
		}
	}
	// NaN vs NaN is not a pass either.
	nan := fig(s1("a", bench.Point{N: 1, Value: math.NaN()}))
	if ps := Diff(nan, nan, nil); !reflect.DeepEqual(problemKinds(ps), []string{"nonfinite"}) {
		t.Errorf("NaN==NaN slipped through: %v", ps)
	}
}

func TestDiffMetadataMismatch(t *testing.T) {
	got := fig(s1("a", bench.Point{N: 1, Value: 2}))
	base := got
	base.ID = "u"
	base.Fidelity = "full"
	base.Seed = 2
	ps := Diff(got, base, nil)
	if len(ps) != 3 || ps[0].Kind != "meta" || ps[1].Kind != "meta" || ps[2].Kind != "meta" {
		t.Fatalf("id/fidelity/seed mismatch not flagged: %v", ps)
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

// TestSpecRoundTrip: every committed spec parses, validates, marshals back
// to an equivalent spec, and expands deterministically.
func TestSpecRoundTrip(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.ID, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", s.ID, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: parse -> marshal -> parse not stable", s.ID)
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

// TestBaselinesCommittedForEverySpec is the pin inventory: 20 specs, each
// with a quick pin that loads, no pin file without a spec, and a go-kind
// spec for every bench.Experiments entry.
func TestBaselinesCommittedForEverySpec(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 20 {
		t.Errorf("%d specs, want 20", len(specs))
	}
	kinds := map[string]string{}
	for _, s := range specs {
		kinds[s.ID] = s.Kind
		if _, err := LoadBaseline(pinDir, s.ID, "quick"); err != nil {
			t.Errorf("%s: %v; run grape6bench -exp %s -quick -update", s.ID, err, s.ID)
		}
	}
	files, err := filepath.Glob(filepath.Join(pinDir, "*.quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".quick.json"); kinds[id] == "" {
			t.Errorf("%s pins no spec", f)
		}
	}
	for id := range bench.Experiments {
		if kinds[id] != "go" {
			t.Errorf("bench.Experiments[%q] has no go-kind spec", id)
		}
	}
}

// TestCommittedBaselineDiffsClean runs each committed spec once at quick
// fidelity, all on one Options so each workload is fitted once: its figure
// diffs clean against its pin, whose file holds the bytes Write gives.
func TestCommittedBaselineDiffsClean(t *testing.T) {
	specs, err := LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.QuickOptions()
	for _, spec := range specs {
		base, err := LoadBaseline(pinDir, spec.ID, "quick")
		if err != nil {
			t.Fatal(err)
		}
		fig, err := Run(spec, opts)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if ps := Diff(fig, base, nil); len(ps) > 0 {
			t.Errorf("%s: differs from its pin:\n%s", spec.ID, FormatProblems(spec.ID, ps))
			continue
		}
		var got bytes.Buffer
		if err := fig.Write(&got); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		want, err := os.ReadFile(BaselinePath(pinDir, spec.ID, "quick"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: diffs clean, but the pin file is not as Write gives it:\n%s", spec.ID, got.Bytes())
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
		// A go-kind spec needs an Experiments entry and declares no axis.
		"go without experiment": `{"id":"f20","kind":"go"}`,
		"go with machines":      `{"id":"a6","kind":"go","machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"go with softening":     `{"id":"a6","kind":"go","softening":["const"]}`,
		"go with unit":          `{"id":"a6","kind":"go","unit":"Tflops"}`,
		"go with n":             `{"id":"a6","kind":"go","n":8,"t_end":0.1}`,
		// Keys the grammar no longer has are unknown fields.
		"ns":         `{"id":"x","kind":"speed","ns":[1000],"machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"quick_ns":   `{"id":"x","kind":"speed","quick_ns":[1000],"machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"eta":        `{"id":"x","kind":"cosim","eta":0.02,"n":8,"t_end":0.1,"machines":[{"algo":"ring","nic":"ns83820","host":"athlon","sweep":[{"hosts":2}]}]}`,
		"model":      `{"id":"x","kind":"cosim","model":"plummer","n":8,"t_end":0.1,"machines":[{"algo":"ring","nic":"ns83820","host":"athlon","sweep":[{"hosts":2}]}]}`,
		"tolerance":  `{"id":"x","kind":"speed","tolerance":1e-6,"machines":[{"nic":"ns83820","host":"athlon"}]}`,
		"tolerances": `{"id":"x","kind":"speed","tolerances":{"a":1e-6},"machines":[{"nic":"ns83820","host":"athlon"}]}`,
		// Two series under one label, which Diff could never tell apart.
		"repeated machine label":  `{"id":"x","kind":"speed","machines":[{"label":"m","nic":"ns83820","host":"athlon"},{"label":"m","nic":"tigon2","host":"athlon"}]}`,
		"two unlabelled machines": `{"id":"x","kind":"speed","softening":["overn"],"machines":[{"nic":"ns83820","host":"athlon"},{"nic":"tigon2","host":"athlon"}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The repeated label is named.
	for _, src := range []string{cases["repeated machine label"], cases["two unlabelled machines"]} {
		if _, err := Parse([]byte(src)); err == nil || !strings.Contains(err.Error(), "two series labelled") {
			t.Errorf("repeated label refused as %v", err)
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
