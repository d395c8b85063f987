package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const specDir = "../../scenarios"

// TestSpecIDsDisjointFromRunners: no committed spec has the id of a table
// runner, a spec that takes one is refused, and every id -list prints has
// exactly one source.
func TestSpecIDsDisjointFromRunners(t *testing.T) {
	specs, err := loadSpecs(specDir)
	if err != nil {
		t.Fatal(err)
	}
	listed := append(runnerIDs(), sortedKeys(specs)...)
	listed = append(listed, sortedKeys(aliases)...)
	listed = append(listed, "all", "scenarios")
	for _, id := range listed {
		sources := 0
		if specs[id] != nil {
			sources++
		}
		if findRunner(id) != nil {
			sources++
		}
		if _, ok := aliases[id]; ok {
			sources++
		}
		if id == "all" || id == "scenarios" {
			sources++
		}
		if sources != 1 {
			t.Errorf("id %q resolves to %d sources, want exactly one", id, sources)
		}
	}
	for alias, id := range aliases {
		if findRunner(id) == nil && specs[id] == nil {
			t.Errorf("alias %q names %q, which nothing runs", alias, id)
		}
	}

	// A spec named after a runner is an error, not a second definition.
	spec := *specs["f13"]
	spec.ID = "t1"
	var buf bytes.Buffer
	if err := spec.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t1.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpecs(dir); err == nil {
		t.Error("a spec with a runner's id was accepted")
	}
}

// TestMissingScenariosDirIsAnError: a mistyped -scenarios is an error, not
// an empty matrix.
func TestMissingScenariosDirIsAnError(t *testing.T) {
	if _, err := loadSpecs(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Fatal("missing spec directory loaded as an empty matrix")
	}
}
