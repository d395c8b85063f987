package gbackend_test

import (
	"testing"

	"grape6/internal/forcecheck"
)

// TestIntegrationPagedBitIdentical: per-chip memory capacity is a pure
// host-resource knob — Hermite corrections on a j-set streamed through
// tiny chip memories in pages give the one-page bits (the §3.4
// partition invariance applied across pages).
func TestIntegrationPagedBitIdentical(t *testing.T) {
	for _, memCapacity := range []int{7, 24} { // 28 and 96 chip slots for 96 particles
		c := forcecheck.Case{N: 96, Seed: 19, Eps: 1.0 / 64, HW: forcecheck.HW(2, 2, 1), Steps: forcecheck.BlockSteps(12, 8)}
		c.HW.Chip.MemCapacity = memCapacity
		forcecheck.Run(t, c)
	}
}

// TestSparseIDsUseMapFallback: ids far from dense, which the load-position
// indexes resolve through their maps, only relabel: forces and updates
// keep the reference bits.
func TestSparseIDsUseMapFallback(t *testing.T) {
	forcecheck.Run(t, forcecheck.Case{N: 32, Seed: 8, IDs: forcecheck.Sparse, Eps: 1.0 / 64, HW: forcecheck.HW(1, 2, 1),
		Steps: []forcecheck.Step{{T: 0x1p-9, Block: 32, Patch: 3}, {T: 0x1p-8, Lo: 17, Block: 32, Patch: 1}, {T: 0x1p-8, Block: 32}}})
}
