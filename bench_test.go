// Benchmarks of the emulator and the co-simulation from the outside: chip
// throughput, the predictor paths, end-to-end block steps (SmallBlockStep
// is in CI's allocation guard) and the virtual-time cosim sweeps. The
// paper's tables and figures are cmd/grape6bench's; this repository's own
// speed is measured by benchmark/.
package grape6_test

import (
	"fmt"
	"math"
	"testing"

	"grape6/internal/chip"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/units"
	"grape6/internal/xrand"

	gboard "grape6/internal/board"
)

// BenchmarkEmulatedChipThroughput measures the raw emulation speed of one
// pipeline chip: pairwise interactions per second of host time.
func BenchmarkEmulatedChipThroughput(b *testing.B) {
	sys := model.Plummer(2048, xrand.New(1))
	ch := chip.New(chip.Default)
	js := make([]chip.JParticle, sys.N)
	f := chip.Default.Format
	for i := 0; i < sys.N; i++ {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
		if err != nil {
			b.Fatal(err)
		}
		js[i] = p
	}
	if err := ch.LoadJ(js); err != nil {
		b.Fatal(err)
	}
	is := make([]chip.IParticle, 48)
	for k := range is {
		x, v := chip.PredictParticle(f, &js[k], 0)
		is[k] = chip.IParticle{X: x, V: v, SelfID: k, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
	}
	dst := make([]chip.Partial, len(is))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.ForceBatchInto(dst, 0, is, 1.0/64)
	}
	b.ReportMetric(float64(48*sys.N*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// predictChip loads one default chip with n Plummer particles for the
// predictor benchmarks.
func predictChip(b *testing.B, n int) *chip.Chip {
	b.Helper()
	sys := model.Plummer(n, xrand.New(3))
	ch := chip.New(chip.Default)
	f := chip.Default.Format
	js := make([]chip.JParticle, sys.N)
	for i := 0; i < sys.N; i++ {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
		if err != nil {
			b.Fatal(err)
		}
		js[i] = p
	}
	if err := ch.LoadJ(js); err != nil {
		b.Fatal(err)
	}
	return ch
}

// BenchmarkPredictFull is the pre-existing predictor cost: one serial
// whole-memory predict per op, with the time advancing every iteration so
// the same-t memo never hits (the individual-timestep regime).
func BenchmarkPredictFull(b *testing.B) {
	ch := predictChip(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Predict(float64(i+1) * math.Ldexp(1, -30))
	}
}

// BenchmarkSmallBlockStep is the Figure 14 small-block regime end to end:
// an individual-timestep integration on an emulated 4-chip attachment in
// steady state, where every block advances the time and the predictor
// would dominate without each force span predicting its own slots across
// the pool.
func BenchmarkSmallBlockStep(b *testing.B) {
	cfg := gboard.Default
	cfg.ChipsPerModule = 2
	cfg.ModulesPerBoard = 2
	cfg.Boards = 1 // 4 chips
	sys := model.Plummer(2048, xrand.New(11))
	it, err := hermite.New(sys, gbackend.New(gboard.New(cfg)), hermite.DefaultParams(1.0/64))
	if err != nil {
		b.Fatal(err)
	}
	// Settle out of the synchronised start into individual-timestep steady
	// state, where blocks are small.
	for i := 0; i < 64; i++ {
		it.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		steps += int64(it.Step().Size)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "particles/block")
}

// BenchmarkHermiteOnEmulatedHardware measures end-to-end integration speed
// on a small emulated attachment.
func BenchmarkHermiteOnEmulatedHardware(b *testing.B) {
	cfg := gboard.Default
	cfg.ChipsPerModule = 2
	cfg.ModulesPerBoard = 2
	cfg.Boards = 1
	for i := 0; i < b.N; i++ {
		sys := model.Plummer(64, xrand.New(9))
		gb := gbackend.New(gboard.New(cfg))
		it, err := hermite.New(sys, gb, hermite.DefaultParams(1.0/64))
		if err != nil {
			b.Fatal(err)
		}
		it.Run(1.0 / 32)
		gb.Close()
	}
}

// cosimBench runs one recorded multi-node co-simulation and reports the
// virtual-time phase decomposition as benchmark metrics beside wall-clock.
func cosimBench(b *testing.B, run func() (*parallel.Result, error)) {
	var res *parallel.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	m := res.Breakdown.Mean()
	b.ReportMetric(res.VirtualTime, "vtime_s")
	b.ReportMetric(m.Host(), "host_s")
	b.ReportMetric(m.Grape(), "grape_s")
	b.ReportMetric(m.Comm(), "comm_s")
	b.ReportMetric(m.Sync(), "sync_s")
	b.ReportMetric(res.StepsPerSecond(), "steps/vs")
}

func cosimConfig(hosts int, nic simnet.NIC) parallel.Config {
	eps := units.Softening(units.SoftConstant, 128)
	return parallel.Config{
		Hosts:   hosts,
		NIC:     nic,
		Machine: perfmodel.SingleNode(nic, perfmodel.Athlon),
		Params:  hermite.DefaultParams(eps),
		Record:  true,
	}
}

// BenchmarkCosimRing sweeps the ring algorithm over host counts and NIC
// generations (the Figure 15/19 axes) with phase accounting on.
func BenchmarkCosimRing(b *testing.B) {
	for _, nc := range []struct {
		name string
		nic  simnet.NIC
	}{{"ns83820", simnet.NS83820}, {"intel82540em", simnet.Intel82540EM}} {
		for _, hosts := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/hosts=%d", nc.name, hosts), func(b *testing.B) {
				cfg := cosimConfig(hosts, nc.nic)
				cosimBench(b, func() (*parallel.Result, error) {
					return parallel.RunRing(model.Plummer(128, xrand.New(1)), 0.03125, cfg)
				})
			})
		}
	}
}

// BenchmarkCosimHybrid sweeps the production clusters×grid structure
// (Figure 17 axes) with phase accounting on.
func BenchmarkCosimHybrid(b *testing.B) {
	for _, sh := range []struct{ clusters, hosts int }{{1, 4}, {2, 8}, {4, 16}} {
		b.Run(fmt.Sprintf("clusters=%d/hosts=%d", sh.clusters, sh.hosts), func(b *testing.B) {
			cfg := cosimConfig(sh.hosts, simnet.NS83820)
			cosimBench(b, func() (*parallel.Result, error) {
				return parallel.RunHybrid(model.Plummer(128, xrand.New(1)), 0.03125, sh.clusters, cfg)
			})
		})
	}
}

// BenchmarkCosimFullMachine is the Figure 19 flagship: the complete
// 64-board × 32-chip machine as a 4-cluster hybrid co-simulation over 256
// ranks (8 chips each), N=2048, gigabit ethernet, P4 frontends. One
// iteration is a full t=1/32 integration — run with -benchtime=1x; the
// wall-clock per iteration is the number the allocation-free DES rework
// drives (< 10 s is the acceptance bar on one core).
func BenchmarkCosimFullMachine(b *testing.B) {
	const clusters, ranks = 4, 256
	m, err := perfmodel.ShardedFleet(clusters, ranks, 64, 32, simnet.Intel82540EM, perfmodel.P4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := parallel.Config{
		Hosts:   ranks,
		NIC:     simnet.Intel82540EM,
		Machine: m,
		Params:  hermite.DefaultParams(units.Softening(units.SoftConstant, 2048)),
		Record:  true,
	}
	cosimBench(b, func() (*parallel.Result, error) {
		return parallel.RunHybrid(model.Plummer(2048, xrand.New(1)), 0.03125, clusters, cfg)
	})
}
