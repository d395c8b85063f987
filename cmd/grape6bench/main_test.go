package main

import (
	"path/filepath"
	"strings"
	"testing"

	"grape6/internal/scenario"
)

const (
	specDir = "../../scenarios"
	pinDir  = "../../testdata/scenarios"
)

// TestMissingScenariosDirIsAnError: a mistyped -scenarios is an error, not
// an empty table.
func TestMissingScenariosDirIsAnError(t *testing.T) {
	if _, err := scenario.LoadDir(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Fatal("missing spec directory loaded as an empty table")
	}
}

// TestPick: an id selects its one spec, "all" every spec in id order, and
// anything else nothing.
func TestPick(t *testing.T) {
	specs, err := scenario.LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := pick(specs, "all"); idList(got) != idList(specs) || got[0].ID != "a1" {
		t.Errorf("all picks %s", idList(got))
	}
	for _, s := range specs {
		if got := pick(specs, s.ID); len(got) != 1 || got[0] != s {
			t.Errorf("%s picks %s", s.ID, idList(got))
		}
	}
	for _, id := range []string{"scenarios", "f20", ""} {
		if got := pick(specs, id); got != nil {
			t.Errorf("%q picks %s", id, idList(got))
		}
	}
}

// TestEveryPin: every experiment -exp all runs has a pin that -diff can
// load, and every pin file belongs to one of them.
func TestEveryPin(t *testing.T) {
	specs, err := scenario.LoadDir(specDir)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, s := range pick(specs, "all") {
		pinned[s.ID] = true
		if _, err := scenario.LoadBaseline(pinDir, s.ID, "quick"); err != nil {
			t.Errorf("%s: %v", s.ID, err)
		}
	}
	if len(pinned) != 20 {
		t.Errorf("%d pinned experiments, want 20", len(pinned))
	}
	files, err := filepath.Glob(filepath.Join(pinDir, "*.quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".quick.json"); !pinned[id] {
			t.Errorf("%s pins no experiment -exp all runs", f)
		}
	}
}
