package main

import (
	"fmt"
	"runtime"
	"time"

	"grape6/internal/gfixed"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/parallel"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
)

// cosimBuilds is how often one repetition repeats its millisecond set-up
// (model and machine construction) to report a steady median.
const cosimBuilds = 31

// cosimRep is the full-machine co-simulation (Fig. 19's topology): the
// hybrid algorithm over 4 clusters of simulated hosts sharing the 64×32
// chip fleet, through des + simnet + parallel + vtrace, with no emulated
// chips. Every simulated statistic must repeat exactly; only host time may
// move. There are no emulator layers to wrap: traced and untraced
// repetitions are the same.
func cosimRep(e *env, _ bool) repResult {
	const name = "cosim"
	res := newRepResult()
	res.attempted = 1

	var sys *nbody.System
	var cfg parallel.Config
	builds := make([]int64, 0, cosimBuilds)
	for i := 0; i < cosimBuilds; i++ {
		t0 := time.Now()
		sys = cosimSystem(e)
		machine, err := perfmodel.ShardedFleet(cosimClusters, e.sz.cosimHosts, 64, 32, simnet.Intel82540EM, perfmodel.P4)
		if err != nil {
			res.failf(name, "set-up: %v", err)
			res.failed = 1
			return res
		}
		cfg = parallel.Config{
			Hosts:   e.sz.cosimHosts,
			NIC:     simnet.Intel82540EM,
			Machine: machine,
			Params:  hermite.DefaultParams(residentEps),
			Record:  true,
		}
		builds = append(builds, int64(time.Since(t0)))
	}
	res.setupS = quantile(builds, 0.5) / 1e9

	runtime.GC()
	mem0 := markMem()
	w0 := time.Now()
	out, err := parallel.RunHybrid(sys, e.sz.cosimTEnd, cosimClusters, cfg)
	res.partNs = []int64{int64(time.Since(w0))}
	res.wallS = float64(res.partNs[0]) / 1e9
	mem1 := markMem()
	res.mallocs, res.allocBytes = mem1.mallocs-mem0.mallocs, mem1.bytes-mem0.bytes
	res.heapLiveMB = heapLiveMB()
	runtime.KeepAlive(out)
	if err != nil {
		res.failf(name, "run: %v", err)
		return res
	}
	res.psteps, res.blocks = out.Steps, out.Blocks

	res.exact["parallel.vtime_bits"] = fmt.Sprintf("%#016x", gfixed.FloatBits(out.VirtualTime))
	res.exact["parallel.steps"] = fmt.Sprint(out.Steps)
	res.exact["parallel.blocks"] = fmt.Sprint(out.Blocks)
	res.exact["parallel.messages"] = fmt.Sprint(out.Messages)
	res.exact["parallel.bytes"] = fmt.Sprint(out.Bytes)
	res.exact["hash"] = fmt.Sprintf("%#016x", grape6d.SystemHash(out.Sys))

	mean := out.Breakdown.Mean()
	res.layer["parallel.vtime_s"] = out.VirtualTime
	res.layer["parallel.steps"] = float64(out.Steps)
	res.layer["parallel.blocks"] = float64(out.Blocks)
	res.layer["parallel.messages"] = float64(out.Messages)
	res.layer["parallel.bytes"] = float64(out.Bytes)
	res.layer["vtrace.host_s"] = mean.Host()
	res.layer["vtrace.grape_s"] = mean.Grape()
	res.layer["vtrace.comm_s"] = mean.Comm()
	res.layer["vtrace.sync_s"] = mean.Sync()
	res.layer["parallel.host_us_per_message"] = res.wallS * 1e6 / float64(out.Messages)
	res.layer["parallel.allocs"] = float64(res.mallocs)
	return res
}
