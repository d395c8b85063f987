// Fixture for //grapelint:ignore handling. Type-checked under the fake
// path "grape6/internal/gbackend" so gfixedboundary applies.
package gbackend

import "math"

// checksum is suppressed by a directive on the line above.
func checksum(x float64) uint64 {
	//grapelint:ignore gfixedboundary ECC checksum hashes the raw IEEE bits
	return math.Float64bits(x)
}

// checksum2 is suppressed by a same-line directive.
func checksum2(x float64) uint64 {
	return math.Float64bits(x) //grapelint:ignore gfixedboundary raw bits feed the CRC
}

// wrongName shows a directive naming a different analyzer does not
// suppress — and, since it then suppresses nothing, the audit flags it
// as stale.
func wrongName(x float64) uint64 {
	//grapelint:ignore noalloc directive names the wrong analyzer // want "unused suppression: no noalloc finding"
	return math.Float64bits(x) // want "math.Float64bits"
}

// malformed shows a directive without analyzer and reason is itself a
// finding, and suppresses nothing.
func malformed(x float64) uint64 {
	_ = x /* want "malformed ignore directive" */ //grapelint:ignore
	return math.Float64bits(x) // want "math.Float64bits"
}
