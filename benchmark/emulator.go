package main

import (
	"fmt"
	"runtime"
	"time"

	"grape6/internal/board"
	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
)

// emulatorRun is one integration on a dedicated 4-chip array: the stack
// hermite → gbackend → board (→ chip → gfixed), wrapped when rec is set.
type emulatorRun struct {
	arr *board.Array
	gb  *gbackend.Backend
	it  *hermite.Integrator
}

// newEmulatorRun builds the array and the integrator (which loads the
// j-memory and makes the initial O(N²) force pass) and steps the warm-up
// blocks.
func newEmulatorRun(sys *nbody.System, eps float64, warm int, rec *recorder) (*emulatorRun, error) {
	r := &emulatorRun{arr: board.New(hw4())}
	var arr gbackend.Array = r.arr
	if rec != nil {
		arr = tracedArray{r.arr, rec}
	}
	r.gb = gbackend.NewBorrowed(arr)
	var hb hermite.Backend = r.gb
	if rec != nil {
		hb = tracedBackend{r.gb, rec}
	}
	it, err := hermite.New(sys, hb, hermite.DefaultParams(eps))
	if err != nil {
		r.close()
		return nil, err
	}
	r.it = it
	if _, _, err := stepBlocks(it, warm, nil, nil, nil); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// close stops the array's worker pool (the backend only borrows it).
func (r *emulatorRun) close() { r.arr.Close() }

// emulated is a workload that integrates one system on a dedicated array.
type emulated struct {
	name  string
	build func(*env) *nbody.System
	eps   float64
	dims  func(sizes) (n, warm, blocks int)
}

var (
	resident = emulated{"resident", residentSystem, residentEps,
		func(s sizes) (int, int, int) { return s.residentN, s.residentWarm, s.residentBlocks }}
	hardbinary = emulated{"hardbinary", hardbinarySystem, hardEps,
		func(s sizes) (int, int, int) { return s.hardN, s.hardWarm, s.hardBlocks }}
)

// rep is one repetition. Set-up is everything before the first measured
// block: building the system from the seed, loading the j-memory, the
// initial force pass and the warm-up.
func (w emulated) rep(e *env, traced bool) repResult {
	n, warm, blocks := w.dims(e.sz)
	res := newRepResult()
	res.attempted = int64(blocks)

	t0 := time.Now()
	var rec *recorder
	var root int32
	if traced {
		// Per block: Step, three gbackend calls, two board calls, and one
		// UpdateJ per particle; set-up adds one UpdateJ per particle.
		rec = newRecorder(t0, 0, 8*(blocks+warm)+4*n+int(float64(blocks+warm)*meanBlockGuess(n)))
		root = rec.begin(kSetup)
	}
	run, err := newEmulatorRun(w.build(e), w.eps, warm, rec)
	if rec != nil {
		rec.end(root)
	}
	res.setupS = time.Since(t0).Seconds()
	if err != nil {
		res.failf(w.name, "set-up: %v", err)
		res.failed = res.attempted
		return res
	}
	defer run.close()
	it, gb := run.it, run.gb

	energy0 := it.Energy()
	steps0, blocks0, cycles0, retries0 := it.Steps, it.Blocks, gb.HWCycles, gb.Retries
	lat := make([]int64, 0, blocks)
	size := make([]int32, 0, blocks)
	runtime.GC()
	mem0 := markMem()

	w0 := time.Now()
	if rec != nil {
		root = rec.begin(kWindow)
	}
	lat, size, err = stepBlocks(it, blocks, rec, lat, size)
	if rec != nil {
		rec.end(root)
	}
	res.wallS = time.Since(w0).Seconds()

	mem1 := markMem()
	res.mallocs, res.allocBytes = mem1.mallocs-mem0.mallocs, mem1.bytes-mem0.bytes
	res.heapLiveMB = heapLiveMB()
	runtime.KeepAlive(run)
	res.stepNs, res.stepSize = lat, size
	res.psteps, res.blocks = it.Steps-steps0, it.Blocks-blocks0
	if err != nil {
		res.failf(w.name, "%v", err)
		res.failed += int64(blocks) - res.blocks // the steps that never ran
		return res
	}

	if drift := relErr(it.Energy(), energy0); !(drift <= maxEnergyErr) {
		res.failf(w.name, "energy drift %.3g over the window exceeds %.0e", drift, maxEnergyErr)
	}
	res.exact["blocks"] = fmt.Sprint(res.blocks)
	res.exact["psteps"] = fmt.Sprint(res.psteps)
	res.exact["gbackend.hw_cycles"] = fmt.Sprint(gb.HWCycles - cycles0)
	res.exact["gbackend.retries"] = fmt.Sprint(gb.Retries - retries0)
	res.exact["hash"] = fmt.Sprintf("%#016x", grape6d.SystemHash(it.Synchronize(it.T)))
	res.layer["gbackend.hw_cycles"] = float64(gb.HWCycles - cycles0)
	res.layer["gbackend.retries"] = float64(gb.Retries - retries0)
	if rec != nil {
		res.recs = []*recorder{rec}
	}
	return res
}

// meanBlockGuess sizes the span buffer: blocks of a Plummer model hold a
// few percent of the particles.
func meanBlockGuess(n int) float64 { return 16 + 0.12*float64(n) }

// extra is the plain single-thread baseline: the first half of the same
// window on a fresh array with GOMAXPROCS=1, against the same blocks of the
// steady untraced window at the pinned GOMAXPROCS.
func (w emulated) extra(e *env, untraced repResult) map[string]float64 {
	half := len(untraced.stepNs) / 2
	out := map[string]float64{"board.speedup_procs": 0}
	if half == 0 {
		return out
	}
	_, warm, _ := w.dims(e.sz)
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	run, err := newEmulatorRun(w.build(e), w.eps, warm, nil)
	if err != nil {
		return out
	}
	defer run.close()
	lat, size, err := stepBlocks(run.it, half, nil, nil, nil)
	if err != nil {
		return out
	}
	rate1 := float64(sum32(size)) / float64(sum64(lat))
	rateP := float64(sum32(untraced.stepSize[:half])) / float64(sum64(untraced.stepNs[:half]))
	out["board.speedup_procs"] = rateP / rate1
	return out
}
