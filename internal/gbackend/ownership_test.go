package gbackend_test

import (
	"testing"

	"grape6/internal/board"
	"grape6/internal/direct"
	"grape6/internal/forcecheck"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

// closeCounter wraps an Array and counts Close calls, standing in for a
// shared fleet whose arrays must outlive any one tenant.
type closeCounter struct {
	gbackend.Array
	closes int
}

func (c *closeCounter) Close() {
	c.closes++
	c.Array.Close()
}

func TestOwnedCloseIsIdempotent(t *testing.T) {
	arr := tinyArray()
	cc := &closeCounter{Array: arr}
	b := gbackend.NewBorrowed(cc)
	gbackend.Own(b) // owned semantics over the counting wrapper
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
	b := gbackend.NewBorrowed(cc)
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
	next := gbackend.NewBorrowed(arr)
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
	forcecheck.Run(t, forcecheck.Case{N: 96, Seed: 3, Eps: 1.0 / 64, HW: forcecheck.HW(2, 2, 1),
		Steps: []forcecheck.Step{{Block: 24}}})
}

// Interface conformance: a dedicated attachment satisfies the Array
// contract directly, as does the test wrapper.
var (
	_ gbackend.Array = (*board.Array)(nil)
	_ gbackend.Array = (*closeCounter)(nil)
)
