package timing

import (
	"math"
	"strings"
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/perfmodel"
	"grape6/internal/sched"
	"grape6/internal/simnet"
	"grape6/internal/units"
)

// syntheticTrace builds a uniform trace by hand (no integration needed).
func syntheticTrace(n, blocks, size int, duration float64) *sched.Trace {
	tr := &sched.Trace{N: n, Kind: units.SoftConstant, Eps: 1.0 / 64, Duration: duration}
	for i := 0; i < blocks; i++ {
		tr.Blocks = append(tr.Blocks, hermite.BlockStat{
			Time: duration * float64(i+1) / float64(blocks), Size: size,
		})
	}
	return tr
}

func TestSimulateAccounting(t *testing.T) {
	m := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	tr := syntheticTrace(10000, 100, 200, 1.0)
	rep := Simulate(m, tr)
	if rep.Blocks != 100 || rep.Steps != 20000 {
		t.Errorf("counters: %d blocks, %d steps", rep.Blocks, rep.Steps)
	}
	// The report totals must equal 100× the single-block cost.
	c := m.BlockTime(10000, 200)
	if math.Abs(rep.Total()-100*c.Total()) > 1e-12*rep.Total() {
		t.Errorf("wall = %v, want %v", rep.Total(), 100*c.Total())
	}
	if rep.TimePerStep() <= 0 || rep.StepsPerSecond() <= 0 {
		t.Error("degenerate rates")
	}
}

func TestReportSpeedConsistency(t *testing.T) {
	m := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	tr := syntheticTrace(50000, 50, 1000, 0.5)
	rep := Simulate(m, tr)
	// S = 57·N·steps/s by definition.
	want := 57.0 * 50000 * rep.StepsPerSecond()
	if math.Abs(rep.SpeedFlops()-want) > 1e-6*want {
		t.Errorf("speed = %v, want %v", rep.SpeedFlops(), want)
	}
	if rep.Efficiency() <= 0 || rep.Efficiency() >= 1 {
		t.Errorf("efficiency = %v", rep.Efficiency())
	}
}

func TestEmptyTrace(t *testing.T) {
	m := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	rep := Simulate(m, &sched.Trace{N: 100, Duration: 1})
	if rep.Total() != 0 || rep.StepsPerSecond() != 0 || rep.TimePerStep() != 0 {
		t.Error("empty trace should produce zero report")
	}
}

func TestDominantComponentShifts(t *testing.T) {
	// Small N on 16 hosts: sync dominates. Large N: GRAPE dominates.
	m := perfmodel.MultiCluster(4, simnet.NS83820, perfmodel.Athlon)
	small := Simulate(m, syntheticTrace(2000, 100, 40, 1))
	if got := small.DominantComponent(); got != "sync" {
		t.Errorf("small-N bottleneck = %s, want sync", got)
	}
	big := Simulate(m, syntheticTrace(1_800_000, 10, 36000, 0.01))
	if got := big.DominantComponent(); got != "grape" {
		t.Errorf("large-N bottleneck = %s, want grape", got)
	}
}

func TestReportString(t *testing.T) {
	m := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	rep := Simulate(m, syntheticTrace(10000, 10, 100, 1))
	s := rep.String()
	if !strings.Contains(s, "N=10000") || !strings.Contains(s, "bottleneck=") {
		t.Errorf("String = %q", s)
	}
}

func TestKuiperBeltEstimate(t *testing.T) {
	// Section 5: 1.8M particles, 1.911e10 steps, 16.30 hours, 33.4 Tflops
	// on the tuned machine. The model should reproduce the right order:
	// hours in [8, 35], Tflops in [20, 63].
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	rep := EstimateApplication(m, KuiperBelt)
	if rep.Hours() < 8 || rep.Hours() > 35 {
		t.Errorf("Kuiper-belt hours = %v, paper: 16.30", rep.Hours())
	}
	if rep.Tflops < 20 || rep.Tflops > 63 {
		t.Errorf("Kuiper-belt Tflops = %v, paper: 33.4", rep.Tflops)
	}
	// Total flops must match the paper's accounting: 1.961e18.
	if math.Abs(rep.Flops-1.961e18)/1.961e18 > 0.01 {
		t.Errorf("total flops = %v, paper: 1.961e18", rep.Flops)
	}
}

func TestBHBinaryEstimate(t *testing.T) {
	// Section 5: 2M particles, 4.143e10 steps, 37.19 hours, 35.3 Tflops.
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	rep := EstimateApplication(m, BHBinary)
	if rep.Hours() < 20 || rep.Hours() > 75 {
		t.Errorf("BH-binary hours = %v, paper: 37.19", rep.Hours())
	}
	if rep.Tflops < 20 || rep.Tflops > 63 {
		t.Errorf("BH-binary Tflops = %v, paper: 35.3", rep.Tflops)
	}
	// Paper total: 4.723e18 flops.
	if math.Abs(rep.Flops-4.723e18)/4.723e18 > 0.01 {
		t.Errorf("total flops = %v, paper: 4.723e18", rep.Flops)
	}
}

func TestBHBinarySlowerThanKuiper(t *testing.T) {
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	k := EstimateApplication(m, KuiperBelt)
	b := EstimateApplication(m, BHBinary)
	if b.Wall <= k.Wall {
		t.Error("BH binary (2.2x steps) should take longer than Kuiper belt")
	}
}

func TestUntunedMachineSlower(t *testing.T) {
	tuned := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	old := perfmodel.MultiCluster(4, simnet.NS83820, perfmodel.Athlon)
	rt := EstimateApplication(tuned, KuiperBelt)
	ro := EstimateApplication(old, KuiperBelt)
	if ro.Tflops >= rt.Tflops {
		t.Errorf("untuned machine not slower: %v vs %v", ro.Tflops, rt.Tflops)
	}
}

func TestPaperParticleStepsPerSecond(t *testing.T) {
	// Section 5: "the speed achieved with GRAPE-6 is around 3.3×10^5
	// particle steps per second." Our model: steps/s = 1/TimePerStep.
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	perStep := m.TimePerStep(1_800_000, 36000)
	stepsPerSec := 1 / perStep
	if stepsPerSec < 1.5e5 || stepsPerSec > 8e5 {
		t.Errorf("steps/s = %v, paper: ~3.3e5", stepsPerSec)
	}
}
