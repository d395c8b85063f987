package analysis

import (
	"sync"
	"testing"
)

// moduleLoad type-checks the whole module once for every test that needs
// it: a load takes seconds.
var moduleLoad = sync.OnceValues(func() ([]*Package, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// loadModule returns the shared load of the module this package sits in.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestLoadModuleTypeChecksCleanly is the machinery smoke test: the
// loader must type-check the entire module, including this package.
// It deliberately does NOT assert zero analyzer findings — repo-wide
// enforcement is cmd/grapelint's job (verify.sh tier 3), so a seeded
// violation fails the gauntlet there rather than tier 1.
func TestLoadModuleTypeChecksCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check skipped in -short mode")
	}
	pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Errorf("loaded %d packages, expected the whole module", len(pkgs))
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{
		"grape6",
		"grape6/internal/gfixed",
		"grape6/internal/chip",
		"grape6/internal/board",
		"grape6/internal/direct", // evalInto: one per GOARCH file, the loader picks by build constraint
		"grape6/cmd/grapelint",
	} {
		if !seen[want] {
			t.Errorf("module load missed %s", want)
		}
	}
}
