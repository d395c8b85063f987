package main

import (
	"math"
	"sort"
)

// decl declares one metric: the same table as BENCHMARK.json, which a test
// holds it to.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"psteps_per_s", "1/s", "higher", 0.25},
	{"blocks_per_s", "1/s", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, from the traced run, the
// program's public counters and the probes. A layer a workload does not
// exercise reads 0 there.
var perLayer = []decl{
	{"hermite.self_s", "s", "lower", 0},
	{"hermite.self_frac", "frac", "lower", 0},
	{"hermite.allocs_per_block", "count", "lower", 0},
	{"hermite.block_ms_p50", "ms", "lower", 0},
	{"gbackend.self_s", "s", "lower", 0},
	{"gbackend.self_frac", "frac", "lower", 0},
	{"gbackend.retry_frac", "frac", "lower", 0},
	{"gbackend.retries", "count", "lower", 0},
	{"gbackend.hw_cycles", "count", "lower", 0},
	{"board.forces_s", "s", "lower", 0},
	{"board.forces_calls", "count", "lower", 0},
	{"board.ns_per_pair", "ns", "lower", 0},
	{"board.update_s", "s", "lower", 0},
	{"board.update_calls", "count", "lower", 0},
	{"board.predict_s", "s", "lower", 0},
	{"board.load_s", "s", "lower", 0},
	{"board.load_calls", "count", "lower", 0},
	{"board.speedup_procs", "ratio", "higher", 0},
	{"board.dispatch_us", "us", "lower", 0},
	{"board.paged_overhead_frac", "frac", "lower", 0},
	{"chip.ns_per_pair", "ns", "lower", 0},
	{"chip.ns_per_pair_small", "ns", "lower", 0},
	{"chip.predict_ns_per_j", "ns", "lower", 0},
	{"chip.writej_ns", "ns", "lower", 0},
	{"gfixed.accum_add_ns", "ns", "lower", 0},
	{"gfixed.round_ns", "ns", "lower", 0},
	{"grape6d.session_s", "s", "lower", 0},
	{"grape6d.request_ms_p50", "ms", "lower", 0},
	{"grape6d.request_ms_p99", "ms", "lower", 0},
	{"grape6d.block_ms_p99", "ms", "lower", 0},
	{"grape6d.wait_frac", "frac", "lower", 0},
	{"grape6d.busy_frac", "frac", "higher", 0},
	{"grape6d.swaps", "count", "lower", 0},
	{"grape6d.swaps_per_block", "ratio", "lower", 0},
	{"grape6d.fill_mean", "frac", "higher", 0},
	{"grape6d.throttled", "count", "lower", 0},
	{"grape6d.sharing_efficiency", "ratio", "higher", 0},
	{"grape6d.fairness", "ratio", "higher", 0},
	{"sched.fit_s", "s", "lower", 0},
	{"timing.model_s", "s", "lower", 0},
	{"scenario.allocs", "count", "lower", 0},
	{"scenario.alloc_mb", "MB", "lower", 0},
	{"scenario.model_gflops_3e5", "Gflops", "higher", 0},
	{"parallel.vtime_s", "s", "lower", 0},
	{"parallel.steps", "count", "higher", 0},
	{"parallel.blocks", "count", "higher", 0},
	{"parallel.messages", "count", "lower", 0},
	{"parallel.bytes", "count", "lower", 0},
	{"parallel.host_us_per_message", "us", "lower", 0},
	{"parallel.allocs", "count", "lower", 0},
	{"vtrace.host_s", "s", "lower", 0},
	{"vtrace.grape_s", "s", "lower", 0},
	{"vtrace.comm_s", "s", "lower", 0},
	{"vtrace.sync_s", "s", "lower", 0},
	{"trace.wall_s", "s", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples. xs is left as it is.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

// stat is one end-to-end metric of a run: the reported value, and the range
// of the same quantity read off each repetition alone.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"` // repetitions
	Unit  string  `json:"unit"`
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// steady folds repetitions into one whose measured window has every part at
// its fastest over the repetitions. The repetitions of a run do identical
// work part by part, and on a shared host interference only ever adds time:
// about half of the readings of one part are 5-25 % above its floor, in
// bursts, so the median over a few repetitions measures the neighbours,
// while the fastest of the readings of the same part measures the program
// (the floor of a 100 ms force call repeats within 1 % where its median
// moves by 20 %). What the program itself adds at random, such as garbage
// collection, is caught by heap_live_mb and hermite.allocs_per_block, not
// here. If a repetition broke off, so that the parts do not line up, the
// median whole window stands in.
func steady(reps []repResult) repResult {
	out := reps[0]
	fastest := append([]int64(nil), out.parts()...)
	aligned := len(fastest) > 0
	walls := make([]float64, len(reps))
	for i := range reps {
		walls[i] = reps[i].wallS
		parts := reps[i].parts()
		if len(parts) != len(fastest) {
			aligned = false
			continue
		}
		for b, ns := range parts {
			if ns < fastest[b] {
				fastest[b] = ns
			}
		}
	}
	if !aligned {
		out.wallS = median(walls)
		return out
	}
	out.wallS = float64(sum64(fastest)) / 1e9
	if out.partNs == nil {
		out.stepNs = fastest
	} else {
		out.partNs = fastest
	}
	return out
}

// shortest returns the repetition with the shortest window: the one the
// host disturbed least.
func shortest(reps []repResult) *repResult {
	best := &reps[0]
	for i := range reps {
		if reps[i].wallS < best.wallS {
			best = &reps[i]
		}
	}
	return best
}

// rates are the metrics that follow from one window.
func (r *repResult) rates() map[string]float64 {
	return map[string]float64{
		"wall_s":       r.wallS,
		"psteps_per_s": float64(r.psteps) / r.wallS,
		"blocks_per_s": float64(r.blocks) / r.wallS,
	}
}

// summarize turns the repetitions of an untraced run into the end-to-end
// metrics. Set-up time and live heap are medians over the repetitions; the
// window's time, and the rates that follow from it, are those of the steady
// window.
func summarize(reps []repResult) map[string]stat {
	per := map[string][]float64{}
	for i := range reps {
		per["setup_s"] = append(per["setup_s"], reps[i].setupS)
		per["heap_live_mb"] = append(per["heap_live_mb"], reps[i].heapLiveMB)
		for name, v := range reps[i].rates() {
			per[name] = append(per[name], v)
		}
	}
	st := steady(reps)
	value := st.rates()
	value["setup_s"] = median(per["setup_s"])
	value["heap_live_mb"] = median(per["heap_live_mb"])
	out := map[string]stat{}
	for _, d := range endToEnd {
		vals := append([]float64(nil), per[d.name]...)
		sort.Float64s(vals)
		out[d.name] = stat{Value: value[d.name], Min: vals[0], Max: vals[len(vals)-1], N: len(vals), Unit: d.unit}
	}
	return out
}

// tracedProfile is what the traced repetitions say about the layers: the
// window, the set-up, and how many spans one repetition records.
type tracedProfile struct {
	win, setup profile
	spans      int
}

// steadyProfile is the traced counterpart of steady. A single client's
// repetitions record the same block steps, so the window is assembled step
// by step, each step (its Step span and everything below it) from the
// repetition in which it ran fastest; what is left out is the driver's own
// loop between steps. Where the clients' steps interleave (tenants), the
// repetition with the shortest window is taken whole. Set-up is read from
// that repetition in both cases.
func steadyProfile(bs []repResult) tracedProfile {
	var tp tracedProfile
	var steps [][]profile
	for _, r := range shortest(bs).recs {
		whole, _ := profileOf(r, kWindow)
		tp.win.add(whole)
		setup, _ := profileOf(r, kSetup)
		tp.setup.add(setup)
		tp.spans += len(r.spans)
	}
	for i := range bs {
		if len(bs[i].recs) != 1 {
			return tp
		}
		_, s := profileOf(bs[i].recs[0], kWindow)
		if i > 0 && len(s) != len(steps[0]) {
			return tp // a repetition broke off
		}
		steps = append(steps, s)
	}
	tp.win = profile{}
	for b := range steps[0] {
		fastest := 0
		for i := range steps {
			if steps[i][b].rootNs < steps[fastest][b].rootNs {
				fastest = i
			}
		}
		tp.win.add(steps[fastest][b])
	}
	return tp
}

// layerMetrics assembles every per-layer metric of one workload: from the
// steady untraced window a, the traced repetitions' counters and profile,
// the tracing overhead measured between the two kinds, the workload's
// extras and the probes.
func layerMetrics(a repResult, counters map[string]float64, tp tracedProfile, overhead float64, extras, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for _, src := range []map[string]float64{counters, extras, probes} {
		for k, v := range src {
			if _, ok := m[k]; ok {
				m[k] = v
			}
		}
	}
	if len(a.stepNs) > 0 {
		m["hermite.allocs_per_block"] = float64(a.mallocs) / float64(len(a.stepNs))
		m["hermite.block_ms_p50"] = quantile(a.stepNs, 0.5) / 1e6
	}
	if tp.spans == 0 {
		return m
	}

	win, setup := tp.win, tp.setup
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	root := float64(win.rootNs)
	m["trace.wall_s"] = sec(win.rootNs)
	m["trace.spans"] = float64(tp.spans)
	m["trace.overhead_frac"] = overhead
	m["hermite.self_s"] = sec(win.self[lHermite])
	m["hermite.self_frac"] = float64(win.self[lHermite]) / root
	m["gbackend.self_s"] = sec(win.self[lGbackend])
	m["gbackend.self_frac"] = float64(win.self[lGbackend]) / root
	if calls := win.calls[kBForces] + win.calls[kSForces]; calls > 0 {
		m["gbackend.retry_frac"] = m["gbackend.retries"] / float64(calls)
	}
	m["board.forces_s"] = sec(win.total[kBForces])
	m["board.forces_calls"] = float64(win.calls[kBForces])
	if win.work[kBForces] > 0 {
		m["board.ns_per_pair"] = float64(win.total[kBForces]) / float64(win.work[kBForces])
	}
	m["board.update_s"] = sec(win.total[kBUpdate])
	m["board.update_calls"] = float64(win.calls[kBUpdate])
	m["board.predict_s"] = sec(win.total[kBPredict])
	m["board.load_s"] = sec(setup.total[kBLoad])
	m["board.load_calls"] = float64(setup.calls[kBLoad])
	m["grape6d.session_s"] = sec(win.self[lGrape6d])
	if reqs := win.durs[kSForces]; len(reqs) > 0 {
		m["grape6d.request_ms_p50"] = quantile(reqs, 0.5) / 1e6
		m["grape6d.request_ms_p99"] = quantile(reqs, 0.99) / 1e6
		m["grape6d.wait_frac"] = 1 - counters["grape6d.busy_s"]/sec(win.total[kSForces])
	}
	return m
}
