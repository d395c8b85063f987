package perfmodel

import (
	"math"
	"testing"

	"grape6/internal/chip"
	"grape6/internal/simnet"
)

func TestMachinePeaks(t *testing.T) {
	// Full production machine: 4 clusters × 4 hosts × 4 boards × 32 chips
	// = 2048 chips, 63.04 Tflops (Section 1).
	full := MultiCluster(4, simnet.NS83820, Athlon)
	if got := full.TotalChips(); got != 2048 {
		t.Errorf("total chips = %d, want 2048", got)
	}
	if got := full.PeakFlops() / 1e12; math.Abs(got-63.04) > 0.05 {
		t.Errorf("peak = %v Tflops, want 63.04", got)
	}
	// Single node: 128 chips ≈ 3.94 Tflops.
	one := SingleNode(simnet.NS83820, Athlon)
	if got := one.PeakFlops() / 1e12; math.Abs(got-3.94) > 0.01 {
		t.Errorf("single-node peak = %v Tflops", got)
	}
}

func TestValidate(t *testing.T) {
	m := SingleNode(simnet.NS83820, Athlon)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Clusters = 0
	if err := m.Validate(); err == nil {
		t.Error("accepted zero clusters")
	}
	m = SingleNode(simnet.NIC{RTT: -1, Bandwidth: 0}, Athlon)
	if err := m.Validate(); err == nil {
		t.Error("accepted invalid NIC")
	}
	m = SingleNode(simnet.NS83820, Athlon)
	m.Attach.Chip.ClockHz = 0
	if err := m.Validate(); err == nil {
		t.Error("accepted zero clock")
	}
	m = SingleNode(simnet.NS83820, Athlon)
	m.Link.Bandwidth = 0
	if err := m.Validate(); err == nil {
		t.Error("accepted zero link bandwidth")
	}
}

func TestCacheModelShape(t *testing.T) {
	// Host time per step grows monotonically with N and saturates below
	// StepTime+MemTime — the Figure 14 behaviour.
	h := Athlon
	prev := 0.0
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		got := h.PerStep(n)
		if got < prev {
			t.Errorf("PerStep not monotone at N=%d", n)
		}
		if got > h.StepTime+h.MemTime {
			t.Errorf("PerStep exceeds asymptote at N=%d", n)
		}
		prev = got
	}
	// Small N fits in cache: no memory penalty.
	if got := h.PerStep(1000); got != h.StepTime {
		t.Errorf("cache-resident PerStep = %v, want %v", got, h.StepTime)
	}
	// Large N approaches the constant model.
	if got := h.PerStep(10_000_000); got < 0.9*(h.StepTime+h.MemTime) {
		t.Errorf("large-N PerStep = %v, asymptote %v", got, h.StepTime+h.MemTime)
	}
}

func TestMissFractionBounds(t *testing.T) {
	for _, n := range []int{0, 1, 100, 10000, 1 << 30} {
		f := Athlon.MissFraction(n)
		if f < 0 || f > 1 {
			t.Errorf("miss fraction %v at N=%d", f, n)
		}
	}
}

func TestP4FasterThanAthlon(t *testing.T) {
	for _, n := range []int{1000, 100000, 1000000} {
		if P4.PerStep(n) >= Athlon.PerStep(n) {
			t.Errorf("P4 not faster at N=%d", n)
		}
	}
}

func TestBlockCostComponentsPositive(t *testing.T) {
	m := SingleNode(simnet.NS83820, Athlon)
	c := m.BlockTime(100000, 1000)
	if c.Host <= 0 || c.Comm <= 0 || c.Grape <= 0 {
		t.Errorf("non-positive components: %+v", c)
	}
	if c.Sync != 0 {
		t.Errorf("single host should have zero sync, got %v", c.Sync)
	}
	if math.Abs(c.Total()-(c.Host+c.Comm+c.Grape+c.Sync)) > 1e-18 {
		t.Error("Total mismatch")
	}
}

func TestSyncAppearsWithMultipleHosts(t *testing.T) {
	m2 := MultiNode(2, simnet.NS83820, Athlon)
	c := m2.BlockTime(10000, 100)
	if c.Sync <= 0 {
		t.Error("2-host system has no sync cost")
	}
	// 4 hosts: two butterfly rounds, double the sync.
	m4 := MultiNode(4, simnet.NS83820, Athlon)
	c4 := m4.BlockTime(10000, 100)
	if math.Abs(c4.Sync/c.Sync-2) > 0.01 {
		t.Errorf("sync(4)/sync(2) = %v, want 2", c4.Sync/c.Sync)
	}
}

func TestMultiClusterExchangeCost(t *testing.T) {
	// Multi-cluster systems pay the copy-algorithm particle exchange on
	// top of the barrier (Section 4.3).
	m1 := MultiNode(4, simnet.NS83820, Athlon)
	m4 := MultiCluster(4, simnet.NS83820, Athlon)
	nb := 1000
	s1 := m1.BlockTime(100000, nb).Sync
	s4 := m4.BlockTime(100000, nb).Sync
	if s4 <= s1 {
		t.Errorf("multi-cluster sync %v not larger than single-cluster %v", s4, s1)
	}
}

func TestTimePerStepSmallNScalesAsOneOverN(t *testing.T) {
	// Section 4.4: "calculation time per particle increases for smaller N,
	// roughly in proportion to 1/N" when latency-dominated. With block
	// size ∝ N, halving N should roughly double the 16-host per-step time
	// in the small-N regime.
	m := MultiCluster(4, simnet.NS83820, Athlon)
	frac := 0.02
	t1 := m.TimePerStep(2000, frac*2000)
	t2 := m.TimePerStep(4000, frac*4000)
	ratio := t1 / t2
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("time-per-step ratio = %v, want ≈2 (1/N scaling)", ratio)
	}
}

func TestLargeNGrapeDominated(t *testing.T) {
	// For large N the GRAPE component must dominate the block cost.
	m := SingleNode(simnet.NS83820, Athlon)
	c := m.BlockTime(1_000_000, 20_000)
	if c.Grape < c.Host+c.Comm+c.Sync {
		t.Errorf("GRAPE does not dominate at large N: %+v", c)
	}
}

func TestSingleNodeSpeedPlausible(t *testing.T) {
	// Figure 13: the 1-host 4-board system reaches ≳1 Tflops at N = 2×10^5
	// (with blocks of ~2% of N) and much less at N = 10^3.
	m := SingleNode(simnet.NS83820, Athlon)
	sBig := m.Speed(200000, 0.02*200000) / 1e12
	if sBig < 1.0 || sBig > 3.94 {
		t.Errorf("speed at 2e5 = %v Tflops, want in [1, peak]", sBig)
	}
	sSmall := m.Speed(1000, 0.02*1000) / 1e9
	if sSmall > 100 {
		t.Errorf("speed at N=1e3 = %v Gflops, implausibly high", sSmall)
	}
	if sSmall <= 0 {
		t.Error("zero speed at small N")
	}
}

func TestMultiNodeCrossover(t *testing.T) {
	// Figure 15: the 2-host system overtakes the 1-host system at a finite
	// crossover N (≈3×10^3 in the paper for constant softening): slower
	// below, faster above.
	m1 := SingleNode(simnet.NS83820, Athlon)
	m2 := MultiNode(2, simnet.NS83820, Athlon)
	frac := 0.02
	small := 500
	if m2.Speed(small, frac*float64(small)) >= m1.Speed(small, frac*float64(small)) {
		t.Errorf("2-host faster than 1-host already at N=%d", small)
	}
	big := 100000
	if m2.Speed(big, frac*float64(big)) <= m1.Speed(big, frac*float64(big)) {
		t.Errorf("2-host not faster than 1-host at N=%d", big)
	}
}

func TestMultiClusterCrossoverIsHigher(t *testing.T) {
	// Figure 17: the multi-cluster crossover (vs the 4-host system) sits
	// at much larger N (~10^5) than the single-cluster one.
	m4 := MultiNode(4, simnet.NS83820, Athlon)
	m16 := MultiCluster(4, simnet.NS83820, Athlon)
	frac := 0.02
	// At N = 2×10^4 the 16-host machine should still lose...
	n := 20000
	if m16.Speed(n, frac*float64(n)) >= m4.Speed(n, frac*float64(n)) {
		t.Errorf("16-host already faster at N=%d", n)
	}
	// ...and win by N = 10^6.
	n = 1_000_000
	if m16.Speed(n, frac*float64(n)) <= m4.Speed(n, frac*float64(n)) {
		t.Errorf("16-host not faster at N=%d", n)
	}
}

func TestNICTuningImprovement(t *testing.T) {
	// Figure 19: Intel 82540EM + P4 improves the 16-host speed by 50-100%
	// over NS83820 + Athlon in the communication-dominated regime.
	old := MultiCluster(4, simnet.NS83820, Athlon)
	tuned := MultiCluster(4, simnet.Intel82540EM, P4)
	frac := 0.02
	n := 100000
	ratio := tuned.Speed(n, frac*float64(n)) / old.Speed(n, frac*float64(n))
	if ratio < 1.3 || ratio > 2.5 {
		t.Errorf("tuning speedup at N=1e5 = %v, want ~1.5-2", ratio)
	}
	// Improvement shrinks at large N where GRAPE dominates.
	nBig := 1_800_000
	ratioBig := tuned.Speed(nBig, frac*float64(nBig)) / old.Speed(nBig, frac*float64(nBig))
	if ratioBig >= ratio {
		t.Errorf("improvement did not shrink with N: %v vs %v", ratioBig, ratio)
	}
}

func TestPaperScaleTflops(t *testing.T) {
	// The tuned full machine at N = 1.8M reached 36.0 Tflops (Section
	// 4.4); the model should land in the right decade and below peak.
	m := MultiCluster(4, simnet.Intel82540EM, P4)
	s := m.Speed(1_800_000, 0.02*1_800_000) / 1e12
	if s < 20 || s > 63 {
		t.Errorf("model speed at 1.8M = %v Tflops, paper: 36.0", s)
	}
}

func TestEfficiencyBounds(t *testing.T) {
	m := SingleNode(simnet.NS83820, Athlon)
	for _, n := range []int{1000, 100000, 1000000} {
		e := m.Efficiency(n, 0.02*float64(n))
		if e <= 0 || e >= 1 {
			t.Errorf("efficiency %v at N=%d out of (0,1)", e, n)
		}
	}
}

func TestBlockTimeDegenerateInputs(t *testing.T) {
	m := SingleNode(simnet.NS83820, Athlon)
	if c := m.BlockTime(0, 10); c.Total() != 0 {
		t.Error("N=0 should cost nothing")
	}
	if c := m.BlockTime(10, 0); c.Total() != 0 {
		t.Error("nb=0 should cost nothing")
	}
	// TimePerStep clamps nbMean below 1.
	if ts := m.TimePerStep(100, 0.1); ts <= 0 {
		t.Error("TimePerStep with tiny block should still be positive")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{10, 3, 4}, {9, 3, 3}, {1, 48, 1}, {0, 5, 0}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGrape4MachinePeak(t *testing.T) {
	// Section 3: GRAPE-6 is "the direct successor of the 1-Tflops
	// GRAPE-4".
	m := Grape4Machine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	peak := m.PeakFlops() / 1e12
	if peak < 0.9 || peak > 1.2 {
		t.Errorf("GRAPE-4 peak = %v Tflops, want ≈1.05", peak)
	}
	// Machine-wide i-parallelism ≈ the paper's "400".
	if got := m.Attach.Chip.IBatch(); got != 384 {
		t.Errorf("GRAPE-4 i-parallelism = %d, want 384", got)
	}
}

func TestGrape6FasterThanGrape4AtScale(t *testing.T) {
	// Two orders of magnitude at large N (Section 3.1: "a single GRAPE-6
	// chip offers the speed two orders of magnitude higher").
	g4 := Grape4Machine()
	g6 := MultiCluster(4, simnet.Intel82540EM, P4)
	n := 1_000_000
	nb := 0.02 * float64(n)
	ratio := g6.Speed(n, nb) / g4.Speed(n, nb)
	if ratio < 20 || ratio > 100 {
		t.Errorf("G6/G4 speed ratio at 1e6 = %v, want tens", ratio)
	}
}

func TestGrape4ParallelismPenaltyAtSmallBlocks(t *testing.T) {
	// The Section 3.4 design argument: with blocks much smaller than the
	// i-parallelism, the wide design wastes pipeline slots. Measure the
	// slot utilization nb/(passes×IBatch) directly for a 50-particle block.
	util := func(c chip.Config, nb int) float64 {
		passes := (nb + c.IBatch() - 1) / c.IBatch()
		return float64(nb) / float64(passes*c.IBatch())
	}
	u4 := util(Grape4Machine().Attach.Chip, 50) // 50/384 ≈ 13%
	u6 := util(chip.Default, 50)                // one chip-row: 50/96 ≈ 52%
	if u4 >= u6 {
		t.Errorf("GRAPE-4 slot utilization %v not below GRAPE-6 %v", u4, u6)
	}
	if u4 > 0.2 {
		t.Errorf("GRAPE-4 utilization at nb=50 = %v, want ≈0.13", u4)
	}
	// The GRAPE-6 pipelines lose nothing once blocks reach the batch size.
	if got := util(chip.Default, 480); got != 1.0 {
		t.Errorf("GRAPE-6 utilization at nb=480 = %v", got)
	}
}
