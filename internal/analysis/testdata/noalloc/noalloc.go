// Fixture for the noalloc analyzer: one annotated function per
// violation class, plus clean cases exercising the allowed idioms
// (testdata/noallocdeep holds the call-chain cases).
package noallocsrc

type point struct{ x, y float64 }

var sink any

func consume(v any) { sink = v }

// fill uses the two allowed append idioms: growing the destination in
// place and refilling a resliced buffer.
//
//grape:noalloc
func fill(buf, xs []float64) []float64 {
	buf = append(buf, xs...)
	buf = append(buf[:0], xs...)
	return buf
}

// accumulate is clean: pointer args, arithmetic, and constant panics
// never allocate.
//
//grape:noalloc
func accumulate(dst *point, xs []point) {
	for i := range xs {
		dst.x += xs[i].x
	}
	if len(xs) == 0 {
		panic("noallocsrc: empty input")
	}
}

//grape:noalloc
func alloc(n int, xs []float64) {
	buf := make([]float64, n) // want "make allocates in noalloc function noalloc.alloc"
	q := new(point)           // want "new allocates"
	grown := append(xs, 1)    // want "append to non-reused slice"
	lit := []float64{1, 2}    // want "slice literal allocates"
	table := map[int]int{}    // want "map literal allocates"
	escaped := &point{x: 1}   // want "pointer to composite literal"
	consume(n)                // want "interface boxing of int"
	f := func() float64 { return xs[0] } // want "closure captures xs"
	_, _, _, _, _, _, _ = buf, q, grown, lit, table, escaped, f
}

//grape:noalloc
func concat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// planes is a structure-of-arrays hot set in the shape of the chip's
// prediction cache: component slices that only an unannotated cold path
// may reallocate.
type planes struct {
	x [3][]float64
	m []float64
}

// stream is the SoA tile-kernel pattern: every plane resliced to a common
// tile length, reads through the locals — pure slice arithmetic on
// pre-sized backing arrays, no allocation.
//
//grape:noalloc
func stream(p *planes, dst *point, lo, hi int) {
	x0 := p.x[0][lo:hi]
	n := len(x0)
	x1, x2 := p.x[1][lo:][:n], p.x[2][lo:][:n]
	m := p.m[lo:][:n]
	for k := range x0 {
		dst.x += m[k] * (x0[k] + x1[k] + x2[k])
	}
}

// growInline is the violation the SoA pattern must avoid: reallocating a
// plane inside an annotated kernel instead of the cold load path.
//
//grape:noalloc
func (p *planes) growInline(n int) {
	p.m = make([]float64, n) // want "make allocates"
}

// free is unannotated: the same constructs are fine here.
func free(n int) []float64 {
	return append(make([]float64, 0, n), 1)
}
