package gbackend

import (
	"testing"

	"grape6/internal/board"
	"grape6/internal/direct"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

// closeCounter wraps an Array and counts Close calls, standing in for a
// shared fleet whose arrays must outlive any one tenant.
type closeCounter struct {
	Array
	closes int
}

func (c *closeCounter) Close() {
	c.closes++
	c.Array.Close()
}

func TestOwnedCloseIsIdempotent(t *testing.T) {
	arr := tinyArray()
	cc := &closeCounter{Array: arr}
	b := NewBorrowed(cc)
	b.owned = true // owned semantics over the counting wrapper
	if !b.Owned() {
		t.Fatal("backend not owned")
	}
	b.Close()
	b.Close()
	b.Close()
	if cc.closes != 1 {
		t.Errorf("owned array closed %d times across three backend Closes, want exactly 1", cc.closes)
	}
}

func TestBorrowedCloseLeavesArrayRunning(t *testing.T) {
	arr := tinyArray()
	defer arr.Close()
	cc := &closeCounter{Array: arr}

	sys := model.Plummer(64, xrand.New(9))
	b := NewBorrowed(cc)
	if b.Owned() {
		t.Fatal("NewBorrowed claims ownership")
	}
	b.Load(sys)
	b.Close()
	b.Close()
	if cc.closes != 0 {
		t.Fatalf("borrowed array closed %d times by backend Close; a shared fleet would lose its other tenants", cc.closes)
	}

	// The array must remain fully usable by the next tenant.
	next := NewBorrowed(arr)
	next.Load(sys)
	ids := []int{0, 1, 2, 3}
	fs := next.ForcesInto(make([]direct.Force, len(ids)), 0, ids, nil, nil, 1.0/64)
	if len(fs) != len(ids) {
		t.Fatalf("got %d forces from array after borrowed Close, want %d", len(fs), len(ids))
	}
	next.Close()
}

// TestBorrowedMatchesOwned pins that the two construction paths drive the
// hardware identically: same bits out of the same workload.
func TestBorrowedMatchesOwned(t *testing.T) {
	sys := model.Plummer(96, xrand.New(3))
	eps := 1.0 / 64
	ids := make([]int, 24)
	for i := range ids {
		ids[i] = i
	}

	owned := New(tinyArray())
	defer owned.Close()
	owned.Load(sys)
	a := owned.ForcesInto(make([]direct.Force, len(ids)), 0, ids, nil, nil, eps)

	arr := tinyArray()
	defer arr.Close()
	borrowed := NewBorrowed(arr)
	defer borrowed.Close()
	borrowed.Load(sys)
	b := borrowed.ForcesInto(make([]direct.Force, len(ids)), 0, ids, nil, nil, eps)

	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("force %d differs between owned and borrowed backends:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// Interface conformance: a dedicated attachment satisfies the Array
// contract directly, as does the test wrapper.
var (
	_ Array = (*board.Array)(nil)
	_ Array = (*closeCounter)(nil)
)
