package bench_test

import (
	"bytes"
	"os"
	"sort"
	"testing"

	"grape6/internal/bench"
	"grape6/internal/scenario"
)

const pinDir = "../../testdata/scenarios"

// TestAllRuns runs each runner once at quick fidelity: it comes back under
// its id, stamped, with every series sorted by N, and each figure but the
// wall-clock one diffs clean against its pin, whose file holds the bytes
// Write gives. The specs' figures are checked the same way in
// internal/scenario.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	ids := map[string]bool{}
	for _, r := range bench.Runners {
		if ids[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		ids[r.ID] = true
		fig, err := r.Run(bench.SharedOpts)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if fig.ID != r.ID {
			t.Errorf("runner %s produced figure %q", r.ID, fig.ID)
		}
		if len(fig.Series) == 0 {
			t.Errorf("%s: no series", r.ID)
		}
		if fig.Fidelity != "quick" || fig.Seed != bench.SharedOpts.Seed {
			t.Errorf("%s: stamped %q/%d, want quick/%d", r.ID, fig.Fidelity, fig.Seed, bench.SharedOpts.Seed)
		}
		for _, s := range fig.Series {
			if !sort.SliceIsSorted(s.Points, func(i, j int) bool { return s.Points[i].N < s.Points[j].N }) {
				t.Errorf("%s: series %q not sorted by N", r.ID, s.Label)
			}
		}
		if !r.WallClock {
			checkPin(t, fig)
		}
	}
	for _, want := range []string{"t1", "t5ab", "t5c", "a1", "a2", "a3", "a5", "a6", "a7", "v1"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

// checkPin diffs fig against its quick pin and requires the pin file to
// hold the bytes Write gives.
func checkPin(t *testing.T, fig bench.Figure) {
	t.Helper()
	base, err := scenario.LoadBaseline(pinDir, fig.ID, "quick")
	if err != nil {
		t.Errorf("%s: %v", fig.ID, err)
		return
	}
	if ps := scenario.Diff(fig, base, nil); len(ps) > 0 {
		t.Errorf("%s: differs from its pin:\n%s", fig.ID, scenario.FormatProblems(fig.ID, ps))
		return
	}
	var got bytes.Buffer
	if err := fig.Write(&got); err != nil {
		t.Fatalf("%s: %v", fig.ID, err)
	}
	want, err := os.ReadFile(scenario.BaselinePath(pinDir, fig.ID, "quick"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: diffs clean, but the pin file is not as Write gives it:\n%s", fig.ID, got.Bytes())
	}
}
