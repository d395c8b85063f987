// The helper package a bit-exact fixture package reaches across a
// package boundary: its own path is not bit-exact, so its
// nondeterminism is a finding only through the call chain.
package impure

import (
	"math/rand"
	"time"
)

// Jitter mixes the two classic nondeterminism sources.
func Jitter() float64 {
	return rand.Float64() * float64(time.Now().UnixNano())
}
