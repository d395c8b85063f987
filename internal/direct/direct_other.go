//go:build !amd64

package direct

import "grape6/internal/vec"

// evalInto is evalEach here: the four-lane kernel is amd64 assembly.
func evalInto(out []Force, xs, vs []vec.V3, js JSet, eps float64, selfSet bool, first int) {
	evalEach(out, xs, vs, js, eps, selfSet, first)
}
