package main

import (
	"fmt"
	"runtime"
	"time"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/gfixed"
	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// The probes time single public functions of the layers below board in
// isolation, so that a kernel change can be read where it happens and
// compared with what reaches the end-to-end numbers. Each reports the
// fastest of several repeats, for the reason the steady window does.

const probeRepeats = 9

// probeParticles builds n j-particles of a Plummer model in the hardware
// format and ni i-particles predicted from them (as chip's own benchmarks
// do, seed included: the probes are the same on every run).
func probeParticles(n, ni int) ([]chip.JParticle, []chip.IParticle, error) {
	sys := model.Plummer(n, xrand.New(1))
	f := gfixed.Grape6
	js := make([]chip.JParticle, n)
	for i := range js {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
		if err != nil {
			return nil, nil, fmt.Errorf("probe particle %d: %w", i, err)
		}
		js[i] = p
	}
	is := make([]chip.IParticle, ni)
	for k := range is {
		x, v := chip.PredictParticle(f, &js[k%n], 0)
		is[k] = chip.IParticle{X: x, V: v, SelfID: k % n, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
	}
	return js, is, nil
}

// fastestNs times fn probeRepeats times (after one untimed call) and
// returns the shortest duration in ns.
func fastestNs(fn func()) float64 {
	fn()
	best := time.Duration(0)
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

var probeSink float64 // keeps the gfixed loops from being optimised away

// runProbes returns every probe metric.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}

	// gfixed: one accumulator add, one mantissa rounding.
	const ops = 1 << 20
	acc := gfixed.Grape6.MakeAccum(8)
	out["gfixed.accum_add_ns"] = fastestNs(func() {
		v := 1e-3
		for i := 0; i < ops; i++ {
			acc.Add(v)
			v = -v
		}
	}) / ops
	probeSink += acc.Value()
	r := gfixed.Grape6.Rounder()
	out["gfixed.round_ns"] = fastestNs(func() {
		x := 1.0000001
		for i := 0; i < ops; i++ {
			x = r.Round(x * 1.0000003)
		}
		probeSink += x
	}) / ops

	// chip: the pair kernel at the two batch shapes the workloads use,
	// the predictor, and a memory write with a current prediction. One
	// chip, one thread.
	js, is, err := probeParticles(1024, 48)
	if err != nil {
		return nil, err
	}
	ch := chip.New(chip.Default)
	if err := ch.LoadJ(js); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	dst := make([]chip.Partial, len(is))
	out["chip.ns_per_pair"] = fastestNs(func() { ch.ForceBatchInto(dst, 0, is, residentEps) }) / float64(48*1024)
	small := chip.New(chip.Default)
	if err := small.LoadJ(js[:512]); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	out["chip.ns_per_pair_small"] = fastestNs(func() {
		for i := 0; i < 32; i++ {
			small.ForceBatchInto(dst, 0, is[:2], residentEps)
		}
	}) / float64(32*2*512)
	t := 0.0
	out["chip.predict_ns_per_j"] = fastestNs(func() {
		for i := 0; i < 16; i++ {
			t += 1.0 / 1024
			ch.PredictRange(t, 0, ch.NJ())
			ch.MarkPredicted(t)
		}
	}) / float64(16*1024)
	out["chip.writej_ns"] = fastestNs(func() {
		for k := range js {
			if err := ch.WriteJ(k, js[k]); err != nil {
				panic(err) // slots 0..NJ-1 exist
			}
		}
	}) / float64(len(js))

	// board: the fixed cost of one dispatch through the 4-chip array, and
	// what paging the j-memory costs against holding it resident.
	one := board.New(hw4())
	defer one.Close()
	if err := one.LoadJ(js[:64]); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	out["board.dispatch_us"] = fastestNs(func() {
		for i := 0; i < 256; i++ {
			one.ForcesInto(dst, 0, is[:1], residentEps)
		}
	}) / 256 / 1e3

	bigJ, bigI, err := probeParticles(8192, 48)
	if err != nil {
		return nil, err
	}
	resident := board.New(hw4())
	defer resident.Close()
	pagedCfg := hw4()
	pagedCfg.Chip.MemCapacity = 512
	paged := board.New(pagedCfg)
	defer paged.Close()
	if err := resident.LoadJ(bigJ); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := paged.LoadJ(bigJ); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	tRes := fastestNs(func() { resident.ForcesInto(dst, 0, bigI, residentEps) })
	tPaged := fastestNs(func() { paged.ForcesInto(dst, 0, bigI, residentEps) })
	out["board.paged_overhead_frac"] = tPaged/tRes - 1
	runtime.KeepAlive(dst)
	return out, nil
}
