package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"grape6/internal/board"
	"grape6/internal/hermite"
)

// defaultSeed is the seed expected.json is pinned for (the paper's
// conference date, as in bench.QuickOptions).
const defaultSeed = 20031115

// sizes fixes the work of one repetition of every workload. The full
// sizes are scaled so that a repetition takes 1-3 s on a 2-core host and a
// 15 s run holds 6-15 of them; quick shrinks them for `go test`.
type sizes struct {
	quick bool

	residentN, residentWarm, residentBlocks int
	hardN, hardWarm, hardBlocks             int
	tenantN, tenantBlocks                   int
	fig13Softenings                         int // leading softenings of the spec to run
	cosimN, cosimHosts                      int
	cosimTEnd                               float64
}

var fullSizes = sizes{
	residentN: 2048, residentWarm: 16, residentBlocks: 64,
	hardN: 2048, hardWarm: 300, hardBlocks: 1500,
	tenantN: 1024, tenantBlocks: 120,
	fig13Softenings: 1,
	cosimN:          2048, cosimHosts: 256, cosimTEnd: 1.0 / 256,
}

var quickSizes = sizes{
	quick:     true,
	residentN: 256, residentWarm: 4, residentBlocks: 24,
	hardN: 128, hardWarm: 50, hardBlocks: 300,
	tenantN: 128, tenantBlocks: 40,
	fig13Softenings: 1,
	cosimN:          128, cosimHosts: 16, cosimTEnd: 1.0 / 64,
}

// Fixed workload parameters that do not scale.
const (
	tenants       = 2 // closed-loop clients of the tenants workload
	cosimClusters = 4
	residentEps   = 1.0 / 64
	hardEps       = 1e-6
	binaryMass    = 0.01
	binarySep     = 1e-4
	maxEnergyErr  = 1e-5 // |ΔE/E| allowed over one measured window
)

// hw4 is the 4-chip attachment (2 chips × 2 modules × 1 board) every
// emulator workload and probe runs on.
func hw4() board.Config {
	cfg := board.Default
	cfg.ChipsPerModule, cfg.ModulesPerBoard, cfg.Boards = 2, 2, 1
	return cfg
}

// env is what a repetition is given: the seed every input is built from,
// the sizes, and where the repository's data files are.
type env struct {
	seed uint64
	sz   sizes
	root string // repository root (scenarios/, testdata/)

	// oracle caches the dedicated-array run of each tenant's system: its
	// final hash is what the shared run must reproduce bit for bit.
	oracle [tenants]*oracleRun
}

// pinned reports whether this run's exact outputs of w are the ones
// recorded in expected.json.
func (e *env) pinned(w *workload) bool {
	return (e.seed == defaultSeed || w.seedFree) && !e.sz.quick && runtime.GOARCH == "amd64"
}

// repResult is one fresh repetition: set-up, the fixed measured work, and
// the checks on its outputs.
type repResult struct {
	setupS, wallS float64
	psteps        int64   // particle steps advanced in the window
	blocks        int64   // block steps in the window
	stepNs        []int64 // latency of every Integrator.Step (nil where the run exposes none)
	stepSize      []int32 // particles in each of those steps

	// partNs times the parts of the window that do identical work in every
	// repetition and follow one another: each phase of fig13, or the
	// window as a whole. nil means the block steps are the parts.
	partNs     []int64
	heapLiveMB float64 // HeapAlloc after a forced GC at the end of the window
	mallocs    uint64  // heap objects allocated during the window
	allocBytes uint64

	attempted, failed int64 // operations: block steps, or 1 for fig13/cosim

	// exact holds the outputs that must repeat bit for bit: counts,
	// hashes, simulated statistics.
	exact map[string]string

	// layer holds per-layer values the workload read from public
	// counters; recs holds the spans of a traced repetition.
	layer map[string]float64
	recs  []*recorder
}

// parts returns the times of the window's repeatable parts.
func (r *repResult) parts() []int64 {
	if r.partNs == nil {
		return r.stepNs
	}
	return r.partNs
}

func newRepResult() repResult {
	return repResult{exact: map[string]string{}, layer: map[string]float64{}}
}

// failf counts one failed operation and says why on standard error.
func (r *repResult) failf(workload, format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", workload, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// seedFree marks a workload whose input is a committed file: the seed
	// does not alter it, and its exact outputs are pinned for every seed.
	seedFree bool
	// rep runs one fresh repetition; traced puts the recording wrappers
	// around the layers, where there are any to wrap.
	rep func(e *env, traced bool) repResult
	// extra, when set, measures what only the traced phase pays for (the
	// single-thread baseline, the dedicated-array baseline).
	extra func(e *env, untraced repResult) map[string]float64
}

var workloads = []workload{
	{name: resident.name, rep: resident.rep, extra: resident.extra},
	{name: hardbinary.name, rep: hardbinary.rep, extra: hardbinary.extra},
	{name: "tenants", rep: tenantsRep, extra: tenantsExtra},
	{name: "fig13", rep: fig13Rep, seedFree: true},
	{name: "cosim", rep: cosimRep},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// memMark is a reading of the allocator's cumulative counters.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// heapLiveMB forces a collection and returns what is still reachable.
// Callers keep the workload's state alive across the call.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// stepBlocks advances it by n block steps, appending each step's latency
// and size to lat and size. A panic inside a step (the GRAPE library panics
// on a force that does not converge) ends the window and is returned as an
// error.
func stepBlocks(it *hermite.Integrator, n int, rec *recorder, lat []int64, size []int32) (_ []int64, _ []int32, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("block step %d panicked: %v", len(lat), p)
		}
	}()
	for b := 0; b < n; b++ {
		var s int32
		if rec != nil {
			rec.block = int32(len(lat))
			s = rec.begin(kStep)
		}
		t0 := time.Now()
		st := it.Step()
		lat = append(lat, int64(time.Since(t0)))
		size = append(size, int32(st.Size))
		if rec != nil {
			rec.end(s)
			rec.block = -1
		}
	}
	return lat, size, nil
}

func sum32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// relErr returns |a-b| / |b|.
func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
