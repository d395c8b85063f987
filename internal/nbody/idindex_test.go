package nbody

import (
	"math"
	"testing"
)

func seq(lo, n, stride int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = lo + i*stride
	}
	return ids
}

func TestIDIndex(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ids    []int
		dense  bool
		absent []int
	}{
		{"zero-based", seq(0, 100, 1), true, []int{-1, 100, 1 << 40}},
		{"offset-contiguous", seq(5000, 100, 1), true, []int{0, 4999, 5100}},
		{"negative", seq(-50, 100, 1), true, []int{-51, 50}},
		{"permuted with holes", []int{12, 3, 7, 10, 5}, true, []int{4, 6, 11, 13}},
		{"sparse", seq(1000000, 32, 37), false, []int{0, 1000001, 1000000 + 37*32}},
		{"extremes", []int{math.MinInt, 0, math.MaxInt}, false, []int{1, -1}},
		{"single", []int{-7}, true, []int{-8, -6, 0}},
		{"empty", nil, false, []int{0}},
	} {
		var x IDIndex
		if !x.Rebuild(tc.ids) {
			t.Errorf("%s: unique ids reported as duplicates", tc.name)
		}
		if x.Dense() != tc.dense {
			t.Errorf("%s: Dense() = %v, want %v", tc.name, x.Dense(), tc.dense)
		}
		for slot, id := range tc.ids {
			if got, ok := x.Slot(id); !ok || got != slot {
				t.Errorf("%s: Slot(%d) = %d, %v, want %d", tc.name, id, got, ok, slot)
			}
		}
		for _, id := range tc.absent {
			if got, ok := x.Slot(id); ok {
				t.Errorf("%s: absent id %d found at slot %d", tc.name, id, got)
			}
		}
	}
}

func TestIDIndexDuplicates(t *testing.T) {
	var x IDIndex
	if x.Rebuild([]int{4, 5, 4}) {
		t.Error("dense: duplicate not reported")
	}
	if x.Rebuild([]int{4, 1 << 30, 4}) {
		t.Error("sparse: duplicate not reported")
	}
	if s, ok := x.Slot(4); !ok || s != 2 {
		t.Errorf("last occurrence should win: Slot(4) = %d, %v", s, ok)
	}
}

// One index is rebuilt for every j-set a board or backend loads: nothing
// of a previous, larger or differently laid out set may show through, and
// a set no larger than the largest seen must not allocate.
func TestIDIndexRebuildReuse(t *testing.T) {
	var x IDIndex
	big, small, sparse := seq(0, 200, 1), seq(100, 10, 1), seq(7, 10, 1000)
	x.Rebuild(big)
	x.Rebuild(small)
	if _, ok := x.Slot(50); ok {
		t.Error("id of the previous, larger set still resolves")
	}
	if s, ok := x.Slot(105); !ok || s != 5 {
		t.Errorf("Slot(105) = %d, %v after shrinking", s, ok)
	}
	x.Rebuild(sparse)
	if _, ok := x.Slot(105); ok {
		t.Error("dense entry survives a sparse rebuild")
	}
	x.Rebuild(big)
	if _, ok := x.Slot(1007); ok {
		t.Error("map entry survives a dense rebuild")
	}
	if s, ok := x.Slot(199); !ok || s != 199 {
		t.Errorf("Slot(199) = %d, %v after growing back", s, ok)
	}
	if a := testing.AllocsPerRun(20, func() {
		x.Rebuild(small)
		x.Rebuild(sparse)
		x.Rebuild(big)
	}); a != 0 {
		t.Errorf("steady-state rebuilds allocate %v times", a)
	}
}
