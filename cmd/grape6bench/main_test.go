package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grape6/internal/scenario"
)

const (
	specDir = "../../scenarios"
	pinDir  = "../../testdata/scenarios"
)

// TestSpecIDsDisjointFromRunners: every id of the table names one entry,
// and a spec that takes a runner's id is refused.
func TestSpecIDsDisjointFromRunners(t *testing.T) {
	tab, err := load(specDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids(tab.all)) != len(tab.all) {
		t.Errorf("an id names two entries: %s", idList(tab.all))
	}
	for _, r := range tab.all {
		if rs := tab.targets(r.ID); len(rs) != 1 || rs[0].ID != r.ID {
			t.Errorf("id %q resolves to %s", r.ID, idList(rs))
		}
	}
	if rs := tab.targets("all"); len(rs) != len(tab.all) {
		t.Errorf("all resolves to %s", idList(rs))
	}
	if rs := tab.targets("scenarios"); len(rs) != 10 || rs[0].ID != "a4" {
		t.Errorf("scenarios resolves to %s", idList(rs))
	}

	// A spec named after a runner is an error, not a second definition.
	spec, err := scenario.Load(filepath.Join(specDir, "f13.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.ID = "t1"
	var buf bytes.Buffer
	if err := spec.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t1.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(dir); err == nil {
		t.Error("a spec with a runner's id was accepted")
	}
}

// TestMissingScenariosDirIsAnError: a mistyped -scenarios is an error, not
// an empty matrix.
func TestMissingScenariosDirIsAnError(t *testing.T) {
	if _, err := load(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Fatal("missing spec directory loaded as an empty matrix")
	}
}

// TestEveryPin: every experiment of the table has a pin that loads, and
// every pin file belongs to one of them. The figures
// themselves are run and diffed against their pins where they are made:
// the specs' in internal/scenario, the runners' in internal/bench.
func TestEveryPin(t *testing.T) {
	tab, err := load(specDir)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, r := range tab.all {
		pinned[r.ID] = true
		if _, err := scenario.LoadBaseline(pinDir, r.ID, "quick"); err != nil {
			t.Errorf("%s: %v", r.ID, err)
		}
	}
	if len(pinned) != 20 {
		t.Errorf("%d pinned experiments, want the 10 specs and 10 runners", len(pinned))
	}
	files, err := filepath.Glob(filepath.Join(pinDir, "*.quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".quick.json"); !pinned[id] {
			t.Errorf("%s pins no experiment of the table", f)
		}
	}
}
