package gbackend

import (
	"testing"

	"grape6/internal/board"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/xrand"
)

// TestIntegrationPagedBitIdentical: per-chip memory capacity is a pure
// host-resource knob — a full Hermite integration on an attachment whose
// j-set is a multi-page set streamed through tiny chip memories must be
// bit-identical to the one-page run, down to the last position bit (the end-to-end face
// of the §3.4 partition invariance applied across pages).
func TestIntegrationPagedBitIdentical(t *testing.T) {
	eps := 1.0 / 64
	run := func(memCapacity int) *nbody.System {
		sys := model.Plummer(96, xrand.New(19))
		cfg := board.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = 1 // 4 chips
		if memCapacity > 0 {
			cfg.Chip.MemCapacity = memCapacity
		}
		arr := board.New(cfg)
		defer arr.Close()
		it, err := hermite.New(sys, New(arr), hermite.DefaultParams(eps))
		if err != nil {
			t.Fatal(err)
		}
		it.Run(0.0625)
		return sys
	}
	want := run(0)  // one page: default 64k slots per chip
	got := run(7)   // multi-page: 28 chip slots for 96 particles
	got2 := run(24) // multi-page, different page geometry

	for i := 0; i < want.N; i++ {
		if want.Pos[i] != got.Pos[i] || want.Vel[i] != got.Vel[i] ||
			want.Time[i] != got.Time[i] || want.Step[i] != got.Step[i] {
			t.Fatalf("particle %d state differs between one-page and multi-page sets (cap 7)", i)
		}
		if want.Pos[i] != got2.Pos[i] || want.Vel[i] != got2.Vel[i] {
			t.Fatalf("particle %d state differs between one-page and multi-page sets (cap 24)", i)
		}
	}
}

// TestSparseIDsUseMapFallback: a j-set whose ids are far from dense,
// which the board's load-position index resolves through its map, must
// produce the same force bits as the dense-id twin (particle identity
// only relabels, never perturbs arithmetic — modulo the NN id itself).
func TestSparseIDsUseMapFallback(t *testing.T) {
	cfg := board.Default
	cfg.ChipsPerModule = 1
	cfg.ModulesPerBoard = 2
	cfg.Boards = 1

	force := func(sparse bool) []direct.Force {
		sys := model.Plummer(32, xrand.New(8))
		if sparse {
			for i := 0; i < sys.N; i++ {
				sys.ID[i] = 1000000 + 37*i
			}
		}
		arr := board.New(cfg)
		defer arr.Close()
		b := New(arr)
		b.Load(sys)
		slots := make([]int, sys.N)
		for i := range slots {
			slots[i] = i
		}
		out := make([]direct.Force, sys.N)
		b.ForcesInto(out, 0, slots, sys.Pos, sys.Vel, 1.0/64)
		// One update round-trip through the lookup path as well.
		b.Update(sys, []int{0, 17, 31})
		return out
	}
	dense := force(false)
	sparse := force(true)
	for i := range dense {
		if dense[i].Acc != sparse[i].Acc || dense[i].Jerk != sparse[i].Jerk || dense[i].Pot != sparse[i].Pot {
			t.Fatalf("force %d differs between dense and sparse id spaces", i)
		}
	}
}
