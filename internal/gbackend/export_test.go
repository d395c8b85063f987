package gbackend

// Own makes b close its array, as New does, for an Array that is not a
// *board.Array.
func Own(b *Backend) { b.owned = true }
