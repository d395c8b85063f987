// Command grape6sim integrates an N-body system on the reproduction's
// GRAPE-6 stack, reporting conservation diagnostics and performance
// accounting as the run progresses:
//
//	grape6sim -n 1024 -t 1 -model plummer -backend grape
//	grape6sim -n 4096 -t 0.5 -model disk -backend direct -checkpoint out.g6
//	grape6sim -restore out.g6 -t 1.0
//
// With -hosts it instead runs the multi-node co-simulation (the parallel
// drivers over the simulated network), with optional per-phase virtual-
// time accounting:
//
//	grape6sim -hosts 4 -algo ring -n 256 -t 0.0625 -breakdown
//	grape6sim -hosts 8 -algo hybrid -clusters 2 -nic myrinet -trace out.json
package main

import (
	"flag"
	"fmt"
	"os"

	"grape6/internal/binaries"
	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/diag"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/scenario"
	"grape6/internal/timing"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

func main() {
	var (
		n         = flag.Int("n", 1024, "particle count")
		modelName = flag.String("model", "plummer", "initial model: plummer, king, disk, bhbinary, coldsphere")
		kingW0    = flag.Float64("w0", 6, "King model central potential (model=king)")
		trackBin  = flag.Bool("binaries", false, "report hard binaries at each diagnostic interval")
		backend   = flag.String("backend", "direct", "force backend: direct or grape")
		softening = flag.String("softening", "const", "softening: const (1/64), ncbrt (1/[8(2N)^1/3]), overn (4/N)")
		tEnd      = flag.Float64("t", 1.0, "integration end time (Heggie units)")
		eta       = flag.Float64("eta", 0, "Aarseth accuracy parameter (0 = default 0.02)")
		seed      = flag.Uint64("seed", 1, "initial-condition seed")
		report    = flag.Float64("report", 0.25, "diagnostic report interval")
		check     = flag.String("checkpoint", "", "write a checkpoint here at the end")
		restore   = flag.String("restore", "", "restore from this checkpoint instead of sampling")

		hosts     = flag.Int("hosts", 0, "co-simulation host count (0 = single-process mode)")
		algo      = flag.String("algo", "copy", "co-simulation algorithm: copy, ring, grid, hybrid")
		clusters  = flag.Int("clusters", 1, "co-simulation cluster count (algo=hybrid)")
		nicName   = flag.String("nic", "ns83820", "co-simulation NIC: ns83820, tigon2, intel82540em, myrinet, bypass")
		boards    = flag.Int("boards", 0, "emulate a boards × chips GRAPE-6 fleet sharded over the hosts (needs -chips)")
		chips     = flag.Int("chips", 0, "pipeline chips per emulated board (needs -boards)")
		fullMach  = flag.Bool("fullmachine", false, "preset: the full 64-board × 32-chip machine as a 4-cluster × 64-host hybrid co-simulation")
		breakdown = flag.Bool("breakdown", false, "print the per-rank virtual-time phase breakdown (needs -hosts)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the co-simulation here (needs -hosts)")
	)
	flag.Parse()

	if *fullMach {
		// The paper's flagship machine: 2048 chips in 4 host clusters,
		// gigabit ethernet, P4-class frontends (Section 6). 256 ranks keep
		// the hybrid r² constraint while sharding 8 chips to each.
		set := func(name string) bool {
			found := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == name {
					found = true
				}
			})
			return found
		}
		if !set("hosts") {
			*hosts = 256
		}
		if !set("algo") {
			*algo = "hybrid"
		}
		if !set("clusters") {
			*clusters = 4
		}
		if !set("nic") {
			*nicName = "intel82540em"
		}
		if !set("boards") {
			*boards = 64
		}
		if !set("chips") {
			*chips = 32
		}
	}

	kind, ok := scenario.LookupSoftening(*softening)
	if !ok {
		fatal("unknown softening %q", *softening)
	}

	if *backend != "direct" && *backend != "grape" {
		fatal("unknown backend %q", *backend)
	}

	if *hosts > 0 {
		if *restore != "" || *check != "" {
			fatal("checkpointing is not supported in co-simulation mode")
		}
		if *backend != "direct" {
			fatal("co-simulation mode supports only -backend direct")
		}
		runCosim(cosimOpts{
			n: *n, modelName: *modelName, kingW0: *kingW0, seed: *seed,
			kind: kind, tEnd: *tEnd, eta: *eta,
			hosts: *hosts, algo: *algo, clusters: *clusters,
			nicName: *nicName, boards: *boards, chips: *chips, fullMach: *fullMach,
			breakdown: *breakdown, traceOut: *traceOut,
		})
		return
	}
	if *fullMach || *boards != 0 || *chips != 0 {
		fatal("-fullmachine/-boards/-chips need the co-simulation mode (-hosts)")
	}
	if *breakdown || *traceOut != "" {
		fatal("-breakdown and -trace need the co-simulation mode (-hosts)")
	}

	var be hermite.Backend // nil: the float64 reference
	if *backend == "grape" {
		be = gbackend.New(board.New(board.Default))
	}
	var sim *core.Simulator
	var eps float64
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fatal("%v", err)
		}
		sim, err = core.Restore(f, core.Config{Backend: be, Eta: *eta})
		f.Close()
		if err != nil {
			fatal("restore: %v", err)
		}
		// The checkpoint header carries the softening; the conservation
		// diagnostics below must use it, not the zero value of a fresh
		// local (a restored run once reported eps=0 energies here).
		eps = sim.Eps()
		fmt.Printf("restored N=%d at t=%.6g eps=%.6g\n", sim.System().N, sim.Time(), eps)
	} else {
		sys := buildSystem(*modelName, *n, *kingW0, *seed)
		eps = units.Softening(kind, sys.N)
		var err error
		sim, err = core.NewSimulator(sys, core.Config{Backend: be, Eps: eps, Eta: *eta})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("model=%s N=%d backend=%s eps=%.6g eta=%g\n",
			*modelName, sys.N, *backend, eps, *eta)
	}

	cons := diag.NewConservation(sim.Synchronized(), eps)
	next := sim.Time() + *report
	for sim.Time() < *tEnd {
		stop := next
		if stop > *tEnd {
			stop = *tEnd
		}
		sim.Run(stop)
		snap := sim.Synchronized()
		dE, dL, _ := cons.Drift(snap, eps)
		e := diag.Measure(snap, eps)
		fmt.Printf("t=%-8.5g steps=%-10d blocks=%-8d E=%.8g dE/E=%.3g |dL|=%.3g virial=%.4g flops=%.4g\n",
			sim.Time(), sim.Steps(), sim.Blocks(), e.Total(), dE, dL, e.Virial, sim.Flops())
		if *trackBin {
			for _, b := range binaries.Detect(snap, 0.1) {
				if b.Hard() {
					fmt.Printf("  hard binary (%d,%d): a=%.5g e=%.3f hardness=%.1f\n",
						b.I, b.J, b.SemiMajor, b.Ecc, b.Hardness)
				}
			}
		}
		next += *report
	}

	if *backend == "grape" {
		fmt.Printf("emulated hardware cycles: %d\n", sim.HardwareCycles())
	}

	if *check != "" {
		f, err := os.Create(*check)
		if err != nil {
			fatal("%v", err)
		}
		if err := sim.Checkpoint(f); err != nil {
			fatal("checkpoint: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s\n", *check)
	}
}

// buildSystem samples the requested initial model via the shared
// scenario table, so the CLI and the scenario specs accept the same
// model names.
func buildSystem(name string, n int, w0 float64, seed uint64) *nbody.System {
	sys, err := scenario.BuildModel(name, n, w0, xrand.New(seed))
	if err != nil {
		fatal("%v", err)
	}
	return sys
}

type cosimOpts struct {
	n         int
	modelName string
	kingW0    float64
	seed      uint64
	kind      units.SofteningKind
	tEnd      float64
	eta       float64

	hosts     int
	algo      string
	clusters  int
	nicName   string
	boards    int
	chips     int
	fullMach  bool
	breakdown bool
	traceOut  string
}

// runCosim executes one multi-node co-simulation and reports virtual-time
// performance, optionally with the per-phase breakdown and a Chrome
// trace-event export.
func runCosim(o cosimOpts) {
	nic, ok := scenario.LookupNIC(o.nicName)
	if !ok {
		fatal("unknown NIC %q", o.nicName)
	}
	if (o.boards > 0) != (o.chips > 0) {
		fatal("-boards and -chips must be given together")
	}
	sys := buildSystem(o.modelName, o.n, o.kingW0, o.seed)
	eps := units.Softening(o.kind, sys.N)
	params := hermite.DefaultParams(eps)
	if o.eta > 0 {
		params.Eta = o.eta
	}
	host := perfmodel.Athlon
	if o.fullMach {
		host = perfmodel.P4
	}
	machine := perfmodel.SingleNode(nic, host)
	if o.boards > 0 {
		cl := 1
		if o.algo == "hybrid" {
			cl = o.clusters
		}
		m, err := perfmodel.ShardedFleet(cl, o.hosts, o.boards, o.chips, nic, host)
		if err != nil {
			fatal("%v", err)
		}
		machine = m
	}
	cfg := parallel.Config{
		Hosts:   o.hosts,
		NIC:     nic,
		Machine: machine,
		Params:  params,
		Record:  o.breakdown || o.traceOut != "",
	}
	fmt.Printf("cosim model=%s N=%d algo=%s hosts=%d nic=%s eps=%.6g eta=%g\n",
		o.modelName, sys.N, o.algo, o.hosts, nic.Name, eps, params.Eta)
	if o.boards > 0 {
		fmt.Printf("emulating %d boards × %d chips = %d pipeline chips (%d per rank, %.4g peak Tflops)\n",
			o.boards, o.chips, o.boards*o.chips,
			machine.Attach.TotalChips(), machine.PeakFlops()/1e12)
	}

	res, err := parallel.Run(o.algo, sys, o.tEnd, o.clusters, cfg)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("virtual time %.6g s: %d blocks, %d steps (%.4g steps/s), %d messages, %d bytes\n",
		res.VirtualTime, res.Blocks, res.Steps, res.StepsPerSecond(),
		res.Messages, res.Bytes)

	if res.Breakdown != nil {
		fmt.Print("\nper-rank virtual-time breakdown (seconds):\n")
		fmt.Print(res.Breakdown.Table())

		// Analytic cross-check: replay the recorded global block sizes
		// through the perfmodel decomposition of the same machine shape.
		am := cfg.Machine
		am.Name = "cosim cross-check"
		am.Clusters = o.clusters
		am.HostsPerCl = o.hosts / o.clusters
		if o.algo != "hybrid" {
			am.Clusters = 1
			am.HostsPerCl = o.hosts
		}
		rep := timing.ReportForBlocks(am, sys.N, res.BlockSizes)
		mean := res.Breakdown.Mean()
		fmt.Printf("\nanalytic model for the same blocks (per-host means, seconds):\n")
		fmt.Printf("  %-10s %12s %12s\n", "component", "cosim", "model")
		fmt.Printf("  %-10s %12.6g %12.6g\n", "host", mean.Host(), rep.Host)
		fmt.Printf("  %-10s %12.6g %12.6g\n", "grape", mean.Grape(), rep.Grape)
		fmt.Printf("  %-10s %12.6g %12.6g\n", "comm", mean.Comm(), rep.Comm)
		fmt.Printf("  %-10s %12.6g %12.6g\n", "sync", mean.Sync(), rep.Sync)
	}

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := res.Trace.WriteTrace(f); err != nil {
			fatal("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("trace written to %s (chrome://tracing or https://ui.perfetto.dev)\n", o.traceOut)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "grape6sim: "+format+"\n", args...)
	os.Exit(1)
}
