// Call-chain cases of the noalloc analyzer: an allocation two calls
// below a //grape:noalloc kernel is reported with the full hop-by-hop
// call chain, an unresolvable call under a kernel is reported too, and
// an annotated callee's allocation is reported once, as its own.
package noallocdeep

//grape:noalloc
func kernel(n int) int { return level1(n) }

func level1(n int) int { return len(level2(n)) }

func level2(n int) []int {
	return make([]int, n) // want "make allocates in noallocdeep.level2, reachable from //grape:noalloc kernel noallocdeep.kernel via noallocdeep.kernel -> noallocdeep.level1 (na.go:8) -> noallocdeep.level2 (na.go:10)"
}

type hooks struct{ fn func() }

//grape:noalloc
func kernelDyn(h *hooks) {
	h.fn() // want "unresolvable call (call through func-valued field fn) in noallocdeep.kernelDyn"
}

// outer reaches inner, itself a kernel: inner's allocation is inner's
// finding, and only once.
//
//grape:noalloc
func outer(n int) int { return len(inner(n)) }

//grape:noalloc
func inner(n int) []int {
	return make([]int, n) // want "make allocates in noalloc function noallocdeep.inner"
}
