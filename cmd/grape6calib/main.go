// Command grape6calib inspects the reproduction's calibration layers: the
// measured block-step workloads, their power-law fits, the timestep
// distribution behind the shared-vs-individual-step argument, and the
// machine model's component breakdown at a given N.
//
//	grape6calib -workload            # measure + fit block statistics
//	grape6calib -breakdown -n 100000 # per-block cost components
//	grape6calib -steps -n 512        # individual-timestep distribution
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/perfmodel"
	"grape6/internal/sched"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/tree"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

func main() {
	var (
		workload  = flag.Bool("workload", false, "measure and fit block-step workloads")
		breakdown = flag.Bool("breakdown", false, "print the block-cost component breakdown")
		steps     = flag.Bool("steps", false, "print the individual-timestep distribution")
		n         = flag.Int("n", 100000, "particle count for -breakdown/-record")
		seed      = flag.Uint64("seed", 20031115, "seed")
		record    = flag.String("record", "", "record a block trace to this file (-n sets the size)")
		duration  = flag.Float64("duration", 0.25, "simulated time units for -record")
		replay    = flag.String("replay", "", "replay a recorded trace on the machine models")
	)
	flag.Parse()
	if !*workload && !*breakdown && !*steps && *record == "" && *replay == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *record != "" {
		nn := *n
		if nn > 8192 {
			fatal("-record at N=%d would take very long; use N ≤ 8192", nn)
		}
		tr, err := sched.Record(nn, units.SoftConstant, *duration, *seed)
		if err != nil {
			fatal("%v", err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fatal("%v", err)
		}
		if err := tr.Write(f); err != nil {
			fatal("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("recorded N=%d trace: %d blocks, %d steps over %g time units → %s\n",
			tr.N, len(tr.Blocks), tr.TotalSteps(), tr.Duration, *record)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal("%v", err)
		}
		tr, err := sched.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal("reading trace: %v", err)
		}
		fmt.Printf("trace: N=%d, %d blocks, %d steps, mean block %.1f\n",
			tr.N, len(tr.Blocks), tr.TotalSteps(), tr.MeanBlockSize())
		for _, mc := range []perfmodel.Machine{
			perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon),
			perfmodel.MultiNode(4, simnet.NS83820, perfmodel.Athlon),
			perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4),
		} {
			rep := timing.Simulate(mc, tr)
			fmt.Printf("  %s\n", rep)
		}
	}

	// The ε = 1/64 fit, shared by -workload and -breakdown.
	var constFit *sched.Workload
	if *workload {
		// The three fits are independent: run them side by side, print
		// them in order.
		kinds := []units.SofteningKind{units.SoftConstant, units.SoftNDependent, units.SoftOverN}
		fits := make([]*sched.Workload, len(kinds))
		errs := make([]error, len(kinds))
		direct.ParallelFor(len(kinds), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fits[i], errs[i] = sched.FitWorkload(kinds[i], sched.DefaultNs, 0.25, *seed)
			}
		})
		for i, kind := range kinds {
			w, err := fits[i], errs[i]
			if err != nil {
				fatal("%v", err)
			}
			if kind == units.SoftConstant {
				constFit = w
			}
			fmt.Printf("softening %s:\n", kind)
			fmt.Printf("  steps/unit-time  ~ N^%.3f\n", w.StepsB)
			fmt.Printf("  blocks/unit-time ~ N^%.3f\n", w.BlocksB)
			for _, tr := range w.Measured {
				fmt.Printf("  measured N=%-6d steps/t=%-10.0f blocks/t=%-8.0f mean block=%.1f\n",
					tr.N, tr.StepsPerUnitTime(), tr.BlocksPerUnitTime(), tr.MeanBlockSize())
			}
			for _, nn := range []int{1e4, 1e5, 1e6} {
				fmt.Printf("  extrapolated N=%-8d mean block=%.0f (%.2f%% of N)\n",
					nn, w.MeanBlockSize(nn), 100*w.MeanBlockSize(nn)/float64(nn))
			}
		}
	}

	if *breakdown {
		if constFit == nil {
			var err error
			if constFit, err = sched.FitWorkload(units.SoftConstant, sched.DefaultNs, 0.25, *seed); err != nil {
				fatal("%v", err)
			}
		}
		nb := int(math.Round(constFit.MeanBlockSize(*n)))
		fmt.Printf("N=%d, mean block=%d\n", *n, nb)
		for _, mc := range []perfmodel.Machine{
			perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon),
			perfmodel.MultiNode(4, simnet.NS83820, perfmodel.Athlon),
			perfmodel.MultiCluster(4, simnet.NS83820, perfmodel.Athlon),
			perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4),
		} {
			c := mc.BlockTime(*n, nb)
			fmt.Printf("%-28s host=%.3gs comm=%.3gs grape=%.3gs sync=%.3gs total=%.3gs → %.3g Gflops\n",
				mc.Name, c.Host, c.Comm, c.Grape, c.Sync, c.Total(),
				mc.Speed(*n, float64(nb))/1e9)
		}
	}

	if *steps {
		nn := *n
		if nn > 4096 {
			nn = 512
		}
		sys := model.Plummer(nn, xrand.New(*seed))
		it, err := hermite.New(sys, hermite.NewDirectBackend(), hermite.DefaultParams(1.0/64))
		if err != nil {
			fatal("%v", err)
		}
		it.Run(1.0 / 16)
		ss := append([]float64(nil), sys.Step...)
		sort.Float64s(ss)
		fmt.Printf("N=%d timestep distribution after t=1/16:\n", nn)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			i := int(q * float64(len(ss)-1))
			fmt.Printf("  p%-3.0f %g\n", q*100, ss[i])
		}
		fmt.Printf("  harmonic-mean/min ratio: %.1f (paper: >100 at N=2e6)\n", tree.StepRatio(ss))
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "grape6calib: "+format+"\n", args...)
	os.Exit(1)
}
