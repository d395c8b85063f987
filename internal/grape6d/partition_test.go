package grape6d_test

import (
	"testing"

	"grape6/internal/forcecheck"
)

// TestLeaseGoldenSeedKernel: the seed-kernel workload on a one-array fleet
// whose other tenant evaluates first, so the lease rides a j-image swap-in
// and must still give the reference bits and the dedicated array's cycles.
func TestLeaseGoldenSeedKernel(t *testing.T) {
	forcecheck.Run(t, forcecheck.Case{N: 512, Seed: 42, Eps: 1.0 / 64, HW: forcecheck.SmallHW(), Noise: true,
		Steps: []forcecheck.Step{{T: 0.015625, Block: 96}}})
}

// TestLeaseGoldenMultiStep: the 24-block individual-timestep workload with
// another tenant evaluating between every block on a one-array fleet, so
// every block rides a swap-in and its corrections take the deferred
// UpdateJ path.
func TestLeaseGoldenMultiStep(t *testing.T) {
	forcecheck.Run(t, forcecheck.Case{N: 2048, Seed: 77, Eps: 1.0 / 64, HW: forcecheck.SmallHW(), Noise: true,
		Steps: forcecheck.BlockSteps(24, 4)})
}
