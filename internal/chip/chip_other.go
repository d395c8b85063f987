//go:build !amd64

package chip

import "grape6/internal/gfixed"

// forceQuads evaluates nothing here, whatever avx2 says: the four-lane loop
// is amd64 assembly, and the caller takes the whole batch through forceTile.
func (ch *Chip) forceQuads(dst []Partial, is []IParticle, lo, n int, e2 float64, r gfixed.Rounder, invPos float64) int {
	return 0
}
