package nbody

// IDIndex maps particle ids to slots (positions in the id list it was
// built from). When the ids span a compact range [lo, hi] — the usual
// 0..N-1 numbering, and equally the contiguous slices [k·N/r, (k+1)·N/r)
// the parallel algorithms carve out — a lookup is one subtraction and one
// read of a dense table; any other id layout falls back to a map. The zero
// value is an empty index. Storage is grow-only, so rebuilding for sets no
// larger than the largest seen allocates nothing.
type IDIndex struct {
	lo    int         // id of dense[0]
	dense []int32     // id-lo → slot, -1 for absent; empty when the map is in use
	m     map[int]int // sparse fallback
}

// Rebuild re-indexes ids, slot k holding ids[k], and reports whether the
// ids are unique. With duplicates the last occurrence wins.
func (x *IDIndex) Rebuild(ids []int) (unique bool) {
	x.dense = x.dense[:0]
	clear(x.m)
	if len(ids) == 0 {
		return true
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	// Unsigned so that a span wider than MaxInt compares as huge instead
	// of overflowing.
	if span := uint(hi) - uint(lo); span < uint(2*len(ids)+64) {
		if n := int(span) + 1; cap(x.dense) < n {
			x.dense = make([]int32, n)
		} else {
			x.dense = x.dense[:n]
		}
		for k := range x.dense {
			x.dense[k] = -1
		}
		x.lo = lo
		unique = true
		for slot, id := range ids {
			if x.dense[id-lo] >= 0 {
				unique = false
			}
			x.dense[id-lo] = int32(slot)
		}
		return unique
	}
	if x.m == nil {
		x.m = make(map[int]int, len(ids))
	}
	for slot, id := range ids {
		x.m[id] = slot
	}
	return len(x.m) == len(ids)
}

// Slot returns the slot of id; absent ids return (0, false).
//
//grape:noalloc
func (x *IDIndex) Slot(id int) (int, bool) {
	if d := x.dense; len(d) > 0 {
		// Wrapping subtraction: ids below lo land above len(d).
		if k := uint(id) - uint(x.lo); k < uint(len(d)) {
			if v := d[k]; v >= 0 {
				return int(v), true
			}
		}
		return 0, false
	}
	v, ok := x.m[id]
	return v, ok
}

// Dense reports whether lookups go through the table rather than the map.
func (x *IDIndex) Dense() bool { return len(x.dense) > 0 }
