// Cross-package fixture for deterministic, type-checked under the fake
// bit-exact path "grape6/internal/chip": Predict's own body is clean,
// but the helper package it calls is not, and the closure must follow
// the call across the package boundary.
package chiplike

import "fixture/impure"

// Predict is a bit-exact-package function reaching nondeterminism one
// package over.
func Predict(x float64) float64 {
	return x + impure.Jitter()
}
