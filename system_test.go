// Cross-stack scenario tests: each exercises several subsystems together,
// the way a production run would (IC generator → integrator → emulated
// hardware → diagnostics → checkpoints → timing model).
package grape6_test

import (
	"bytes"
	"math"
	"testing"

	gboard "grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/core"
	"grape6/internal/diag"
	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/perfmodel"
	"grape6/internal/sched"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// tinyGrape is a dedicated 4-chip emulated array.
func tinyGrape() *gbackend.Backend {
	hw := gboard.Default
	hw.ChipsPerModule = 2
	hw.ModulesPerBoard = 2
	hw.Boards = 1
	return gbackend.New(gboard.New(hw))
}

// TestKingClusterOnEmulatedHardware: the canonical GRAPE workload — a
// concentrated King cluster — integrated on the emulated machine.
func TestKingClusterOnEmulatedHardware(t *testing.T) {
	sys, err := model.King(96, 6, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	eps := units.Softening(units.SoftNDependent, sys.N)
	sim, err := core.NewSimulator(sys, core.Config{Backend: tinyGrape(), Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy()
	if math.Abs(e0+0.25) > 0.01 {
		t.Fatalf("King cluster E0 = %v, want ≈ -0.25", e0)
	}
	sim.Run(0.25)
	if rel := math.Abs((sim.Energy() - e0) / e0); rel > 1e-4 {
		t.Errorf("energy error on hardware = %v", rel)
	}
	// Concentrated cluster: Lagrangian radii strictly ordered, core small.
	snap := sim.Synchronized()
	rs, err := diag.LagrangianRadii(snap, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !(rs[0] < rs[1] && rs[1] < rs[2]) {
		t.Errorf("Lagrangian radii not ordered: %v", rs)
	}
}

// TestCheckpointRestartOnHardware: a production-style restart mid-run on
// the emulated backend, continuing conservatively.
func TestCheckpointRestartOnHardware(t *testing.T) {
	sys := model.Plummer(64, xrand.New(9))
	sim, err := core.NewSimulator(sys, core.Config{Backend: tinyGrape(), Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy()
	sim.Run(0.125)

	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	sim2, err := core.Restore(&buf, core.Config{Backend: tinyGrape()})
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(0.25)
	if rel := math.Abs((sim2.Energy() - e0) / e0); rel > 1e-4 {
		t.Errorf("energy error across hardware restart = %v", rel)
	}
	if sim2.HardwareCycles() == 0 {
		t.Error("restart did not run on hardware")
	}
}

// TestRelabelledSystems: particle ids are labels, never addresses. A
// Plummer model relabelled reversed, sparse or negative must run 40
// blocks bit-identically to the same model labelled 0..N-1 on both
// backends; the hashes are taken after the labels are mapped back.
func TestRelabelledSystems(t *testing.T) {
	const n, blocks = 64, 40
	for _, kind := range []string{"direct", "grape"} {
		run := func(label func(i int) int) uint64 {
			sys := model.Plummer(n, xrand.New(9))
			for i := range sys.ID {
				sys.ID[i] = label(i)
			}
			var be hermite.Backend // nil: the float64 reference
			if kind == "grape" {
				be = tinyGrape()
			}
			sim, err := core.NewSimulator(sys, core.Config{Backend: be, Eps: 1.0 / 64})
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			for k := 0; k < blocks; k++ {
				sim.Step()
			}
			for i := range sys.ID {
				if sys.ID[i] != label(i) {
					t.Fatalf("%v: particle %d came back labelled %d, want %d", kind, i, sys.ID[i], label(i))
				}
				sys.ID[i] = i
			}
			return grape6d.SystemHash(sys)
		}
		want := run(func(i int) int { return i })
		for name, label := range map[string]func(int) int{
			"N-1-i":    func(i int) int { return n - 1 - i },
			"1000+37i": func(i int) int { return 1000 + 37*i },
			"-1-i":     func(i int) int { return -1 - i },
		} {
			if got := run(label); got != want {
				t.Errorf("%v, ids %s: hash %#016x, want %#016x as with ids i", kind, name, got, want)
			}
		}
	}
}

// TestTracePersistenceFeedsTimingModel: record a real trace, round-trip it
// through the binary format, and replay it on two machine models.
func TestTracePersistenceFeedsTimingModel(t *testing.T) {
	tr, err := sched.Record(128, units.SoftConstant, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := sched.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	m1 := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	m4 := perfmodel.MultiNode(4, simnet.NS83820, perfmodel.Athlon)
	r1 := timing.Simulate(m1, restored)
	r4 := timing.Simulate(m4, restored)
	if r1.Steps != tr.TotalSteps() || r4.Steps != tr.TotalSteps() {
		t.Error("replay lost steps")
	}
	// At N=128 the single node must beat the 4-node machine (Figure 15's
	// small-N regime), end to end through the persistence layer.
	if r4.SpeedFlops() >= r1.SpeedFlops() {
		t.Errorf("4-node (%v) not slower than 1-node (%v) at N=128",
			r4.SpeedFlops(), r1.SpeedFlops())
	}
}

// TestDiskOnHardware: the Kuiper-belt-style workload runs on the emulated
// backend (dominant central mass exercises the block-exponent spread).
func TestDiskOnHardware(t *testing.T) {
	cfg := model.DefaultKuiperDisk(48)
	sys := model.Disk(cfg, xrand.New(11))
	sim, err := core.NewSimulator(sys, core.Config{Backend: tinyGrape(), Eps: 1e-3, Eta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy()
	period := model.OrbitalPeriod(cfg.MCentral, cfg.RInner)
	sim.Run(period / 4)
	if rel := math.Abs((sim.Energy() - e0) / e0); rel > 1e-5 {
		t.Errorf("disk energy error on hardware = %v", rel)
	}
	// Planetesimals stay near their Keplerian annulus.
	snap := sim.Synchronized()
	for i := 1; i < snap.N; i++ {
		r := snap.Pos[i].Norm()
		if r < 0.5*cfg.RInner || r > 2*cfg.ROuter {
			t.Errorf("planetesimal %d wandered to r=%v", i, r)
		}
	}
}

// TestBenchQuickSuiteIsSelfConsistent: the harness's own cross-experiment
// invariants (peak ordering, crossover ordering) hold in one pass.
func TestBenchQuickSuiteIsSelfConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("harness pass skipped in -short mode")
	}
	m1 := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
	m16 := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	g4 := perfmodel.Grape4Machine()
	// Peak ordering: GRAPE-4 < single node < full machine.
	if !(g4.PeakFlops() < m1.PeakFlops() && m1.PeakFlops() < m16.PeakFlops()) {
		t.Error("peak ordering violated")
	}
	// At N=1e6 with 2% blocks, the full machine dominates everything.
	n, nb := 1_000_000, 20_000.0
	if !(m16.Speed(n, nb) > m1.Speed(n, nb) && m1.Speed(n, nb) > g4.Speed(n, nb)) {
		t.Error("speed ordering at scale violated")
	}
}

// TestCycleModelsAgree cross-validates the emulated hardware's cycle
// counter (board.Array) and the analytic model (perfmodel.GrapeTimeHost)
// on the same attachment: they must agree exactly once the reduction-tree
// latency, which only the emulator counts (3 stages here), is taken off.
func TestCycleModelsAgree(t *testing.T) {
	hw := gboard.Default
	hw.ChipsPerModule = 2
	hw.ModulesPerBoard = 2
	hw.Boards = 2 // 8 chips
	arr := gboard.New(hw)

	n := 512
	sys := model.Plummer(n, xrand.New(61))
	js := make([]chip.JParticle, n)
	f := hw.Chip.Format
	for i := 0; i < n; i++ {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
		if err != nil {
			t.Fatal(err)
		}
		js[i] = p
	}
	if err := arr.LoadJ(js); err != nil {
		t.Fatal(err)
	}

	m := perfmodel.Machine{
		Name: "x", Clusters: 1, HostsPerCl: 1, Attach: hw,
		Link: perfmodel.PCI, NIC: simnet.NS83820, Host: perfmodel.Athlon,
	}

	for _, ni := range []int{1, 17, 48, 96, 200} {
		is := make([]chip.IParticle, ni)
		for k := range is {
			x, v := chip.PredictParticle(f, &js[k%n], 0)
			is[k] = chip.IParticle{X: x, V: v, SelfID: k % n, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
		}
		cycles := arr.ForcesInto(make([]chip.Partial, len(is)), 0, is, 1.0/64)
		emulated := arr.TimeFor(cycles - int64(3*hw.ReduceCyclesPerStage))
		if analytic := m.GrapeTimeHost(ni, n); analytic != emulated {
			t.Errorf("ni=%d: emulated %v s without the reduction tree, analytic %v s", ni, emulated, analytic)
		}
	}
}
