// Fixture for the deterministic analyzer. Type-checked under the fake
// import path "grape6/internal/chip" so the bit-exact scoping applies.
package chip

import (
	"math/rand"
	"time"
)

// A package-level initializer is not a call-graph node; it is checked
// all the same.
var started = time.Now() // want "time.Now (wall-clock dependence) in bit-exact package"

// Accum stands in for the gfixed block-float accumulator: its Add is
// order-sensitive.
type Accum struct{ sum float64 }

func (a *Accum) Add(x float64) { a.sum += x }

func Jitter() float64 { return rand.Float64() } // want "math/rand.Float64 (global seed state) in bit-exact package"

func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now (wall-clock dependence) in bit-exact package"
}

func SumMap(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "float accumulation over map iteration order"
	}
	return total
}

func SumMapExplicit(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want "float accumulation over map iteration order"
	}
	return total
}

func SumAccum(m map[int]float64) float64 {
	var a Accum
	for _, v := range m {
		a.Add(v) // want "iteration order changes the rounding sequence"
	}
	return a.sum
}

// SumSlice is clean: slice iteration order is fixed.
func SumSlice(xs []float64) float64 {
	var total float64
	for _, v := range xs {
		total += v
	}
	return total
}

// CountMap is clean: integer counting is order-independent.
func CountMap(m map[int]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// MaxKey is clean: per-iteration locals do not accumulate.
func MaxKey(m map[int]float64) int {
	best := 0
	for k := range m {
		if k > best {
			best = k
		}
	}
	return best
}
