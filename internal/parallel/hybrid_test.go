package parallel

import (
	"math"
	"reflect"
	"testing"

	"grape6/internal/simnet"
)

func TestHybridRejectsBadShapes(t *testing.T) {
	sys := plummer(32, 1)
	if _, err := RunHybrid(sys, 0.01, 3, testConfig(12)); err == nil {
		t.Error("accepted 3 clusters")
	}
	if _, err := RunHybrid(plummer(32, 1), 0.01, 2, testConfig(6)); err == nil {
		t.Error("accepted 3 hosts per cluster")
	}
	if _, err := RunHybrid(plummer(32, 1), 0.01, 2, testConfig(7)); err == nil {
		t.Error("accepted non-divisible host count")
	}
}

func TestHybridSingleClusterMatchesGrid(t *testing.T) {
	// With one cluster the hybrid IS the grid algorithm; the partial-sum
	// order is identical, so results must be bit-identical.
	n := 48
	until := 0.0625
	g, err := RunGrid(plummer(n, 41), until, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunHybrid(plummer(n, 41), until, 1, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if g.Sys.Pos[i] != h.Sys.Pos[i] || g.Sys.Vel[i] != h.Sys.Vel[i] {
			t.Fatalf("particle %d differs between grid and 1-cluster hybrid", i)
		}
	}
	if g.Steps != h.Steps {
		t.Errorf("steps differ: %d vs %d", g.Steps, h.Steps)
	}
	if math.Float64bits(g.VirtualTime) != math.Float64bits(h.VirtualTime) {
		t.Errorf("virtual times differ: %v vs %v", g.VirtualTime, h.VirtualTime)
	}
	if g.Messages != h.Messages || g.Bytes != h.Bytes {
		t.Errorf("traffic differs: %d msgs/%d bytes vs %d/%d", g.Messages, g.Bytes, h.Messages, h.Bytes)
	}
	if !reflect.DeepEqual(g.BlockSizes, h.BlockSizes) {
		t.Error("block-size histories differ")
	}
}

func TestHybridMatchesReference(t *testing.T) {
	// 2 clusters × 4 hosts: trajectories close to the single-host run.
	n := 64
	until := 0.0625
	ref := singleHostReference(t, n, 43, until)
	res, err := RunHybrid(plummer(n, 43), until, 2, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDeviation(ref, res.Sys); d > 1e-6 {
		t.Errorf("hybrid deviates from reference by %v", d)
	}
}

func TestHybridClusterCountInvariance(t *testing.T) {
	// Different cluster counts must agree closely (not bit-exact: the
	// cluster hash changes which diagonal sums which partial set, but the
	// partial summation order within a cluster is fixed).
	n := 48
	until := 0.0625
	h1, err := RunHybrid(plummer(n, 45), until, 1, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := RunHybrid(plummer(n, 45), until, 2, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDeviation(h1.Sys, h2.Sys); d > 1e-7 {
		t.Errorf("1-cluster vs 2-cluster deviation %v", d)
	}
}

func TestHybridMultiClusterIsSlowerAtSmallN(t *testing.T) {
	// The paper's Figure 17/18 finding at message level: the 8-host
	// 2-cluster machine is SLOWER than the 4-host single cluster at small
	// N because of the inter-cluster update broadcasts.
	n := 64
	until := 0.0625
	h4, err := RunHybrid(plummer(n, 47), until, 1, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	h8, err := RunHybrid(plummer(n, 47), until, 2, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if h8.VirtualTime <= h4.VirtualTime {
		t.Errorf("2-cluster (%.4gs) not slower than 1-cluster (%.4gs) at N=%d",
			h8.VirtualTime, h4.VirtualTime, n)
	}
	// And it moves strictly more bytes.
	if h8.Bytes <= h4.Bytes {
		t.Errorf("2-cluster bytes %d not above 1-cluster %d", h8.Bytes, h4.Bytes)
	}
}

func TestHybridTunedNICHelps(t *testing.T) {
	cfgOld := testConfig(8)
	cfgNew := testConfig(8)
	cfgNew.NIC = simnet.Intel82540EM
	ro, err := RunHybrid(plummer(64, 49), 0.03125, 2, cfgOld)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunHybrid(plummer(64, 49), 0.03125, 2, cfgNew)
	if err != nil {
		t.Fatal(err)
	}
	if rn.VirtualTime >= ro.VirtualTime {
		t.Errorf("tuned NIC not faster on hybrid: %v vs %v", rn.VirtualTime, ro.VirtualTime)
	}
}

func TestHybridEnergyConservation(t *testing.T) {
	sys := plummer(64, 51)
	e0 := sys.TotalEnergy(1.0 / 64)
	res, err := RunHybrid(sys.Clone(), 0.125, 2, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	snap := synchronizeAll(res.Sys)
	e1 := snap.TotalEnergy(1.0 / 64)
	if rel := abs((e1 - e0) / e0); rel > 1e-4 {
		t.Errorf("hybrid energy error = %v", rel)
	}
}

func TestHybridDeterministic(t *testing.T) {
	run := func() *Result {
		r, err := RunHybrid(plummer(48, 53), 0.0625, 2, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.VirtualTime != b.VirtualTime || a.Messages != b.Messages {
		t.Error("non-deterministic hybrid co-simulation")
	}
	for i := 0; i < a.Sys.N; i++ {
		if a.Sys.Pos[i] != b.Sys.Pos[i] {
			t.Fatalf("non-deterministic particle %d", i)
		}
	}
}

// A diagonal host of the hybrid broadcasts one update list to its row and
// column peers in every cluster. The list is boxed into the message payload
// once per round, and an empty share travels as a nil slice, which boxes
// for free. Boxing once per destination, as the code used to, takes this
// 16-host window from 4082 allocations to 6182 (9767 with the empty shares
// allocated as well) and changes no simulated number, so nothing else
// would notice.
func TestHybridWindowAllocations(t *testing.T) {
	sys := plummer(128, 47)
	cfg := recordConfig(16)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunHybrid(sys.Clone(), 1.0/64, 4, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 5000
	t.Logf("%.0f allocations per 16-host window (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocations per window, ceiling %d: is a payload boxed once per destination again?", allocs, ceiling)
	}
}
