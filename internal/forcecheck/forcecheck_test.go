package forcecheck_test

import (
	"testing"

	"grape6/internal/forcecheck"
)

// defaultSeeds is how many drawn cases tier 1 runs: seeds 1 … defaultSeeds.
const defaultSeeds = 16

// TestDefaultSeeds runs the default draws and asserts that together they
// reach every coverage item: a seed range that stopped reaching one would
// stop checking it.
func TestDefaultSeeds(t *testing.T) {
	cov := forcecheck.Coverage{}
	for seed := uint64(1); seed <= defaultSeeds; seed++ {
		cov.Add(forcecheck.Run(t, forcecheck.Draw(seed)))
	}
	if missing := cov.Missing(); len(missing) > 0 {
		t.Errorf("seeds 1–%d never reach %q (%v)", defaultSeeds, missing, cov)
	}
	t.Log(cov)
}

// FuzzForcePath runs the case of any seed. A failing seed is committed to
// testdata/fuzz/FuzzForcePath, from where tier 1 replays it.
func FuzzForcePath(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		forcecheck.Run(t, forcecheck.Draw(seed))
	})
}
