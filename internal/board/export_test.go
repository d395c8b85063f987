package board

import "grape6/internal/chip"

// The internals the external tests read.

func Pages(a *Array) int             { return a.pages() }
func Chips(a *Array) []*chip.Chip    { return a.chips }
func ReductionCycles(a *Array) int64 { return a.reductionCycles() }

// Workers returns the pool's workers, nil while none is spawned.
func Workers(a *Array) []*forceWorker {
	if ws := a.workers.Load(); ws != nil {
		return *ws
	}
	return nil
}

var Log2Ceil = log2ceil
