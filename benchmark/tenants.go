package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
)

// oracleRun is a tenant's system integrated alone on a dedicated array:
// the result the daemon must reproduce bit for bit, and the throughput one
// tenant has with no one to share with.
// oracleRuns is how often the dedicated run is made, for a steady rate.
const oracleRuns = 2

type oracleRun struct {
	hash       string
	pstepsPerS float64
}

func (e *env) tenantOracle(k int) (*oracleRun, error) {
	if e.oracle[k] != nil {
		return e.oracle[k], nil
	}
	var runs []repResult
	o := &oracleRun{}
	for i := 0; i < oracleRuns; i++ {
		run, err := newEmulatorRun(tenantSystem(e, k), residentEps, 0, nil)
		if err != nil {
			return nil, err
		}
		lat, size, err := stepBlocks(run.it, e.sz.tenantBlocks, nil, nil, nil)
		hash := fmt.Sprintf("%#016x", grape6d.SystemHash(run.it.Synchronize(run.it.T)))
		run.close()
		if err != nil {
			return nil, err
		}
		if i > 0 && hash != o.hash {
			return nil, fmt.Errorf("dedicated-array runs disagree: %s, then %s", o.hash, hash)
		}
		o.hash = hash
		runs = append(runs, repResult{stepNs: lat, psteps: sum32(size)})
	}
	st := steady(runs)
	o.pstepsPerS = float64(st.psteps) / st.wallS
	e.oracle[k] = o
	return o, nil
}

// tenantsRep is the daemon as a tenant sees it with more sessions than
// slots: two clients, each a goroutine stepping its own integrator over a
// lease of the one shared array and waiting for every step (closed loop),
// so every alternation is a j-image swap.
func tenantsRep(e *env, traced bool) repResult {
	const name = "tenants"
	res := newRepResult()
	blocks := e.sz.tenantBlocks
	res.attempted = int64(tenants * blocks)

	t0 := time.Now()
	d := grape6d.NewScheduler(grape6d.Config{Fleet: 1, HW: hw4()})
	defer d.Close()
	var (
		its  [tenants]*hermite.Integrator
		gbs  [tenants]*gbackend.Backend
		recs [tenants]*recorder
		root [tenants]int32
	)
	for k := 0; k < tenants; k++ {
		sess, err := d.Attach(fmt.Sprintf("tenant%d", k), grape6d.Quota{})
		if err != nil {
			res.failf(name, "attach: %v", err)
			res.failed = res.attempted
			return res
		}
		defer sess.Detach()
		var arr gbackend.Array = sess
		if traced {
			recs[k] = newRecorder(t0, k, 8*blocks+4*e.sz.tenantN+int(float64(blocks)*meanBlockGuess(e.sz.tenantN)))
			root[k] = recs[k].begin(kSetup)
			arr = tracedSession{sess, recs[k]}
		}
		gbs[k] = gbackend.NewBorrowed(arr)
		var hb hermite.Backend = gbs[k]
		if traced {
			hb = tracedBackend{gbs[k], recs[k]}
		}
		its[k], err = hermite.New(tenantSystem(e, k), hb, hermite.DefaultParams(residentEps))
		if traced {
			recs[k].end(root[k])
		}
		if err != nil {
			res.failf(name, "tenant %d set-up: %v", k, err)
			res.failed = res.attempted
			return res
		}
	}
	res.setupS = time.Since(t0).Seconds()

	var energy0 [tenants]float64
	var cycles, retries int64
	for k := range its {
		energy0[k] = its[k].Energy()
		cycles -= gbs[k].HWCycles
		retries -= gbs[k].Retries
	}
	var (
		lat  [tenants][]int64
		size [tenants][]int32
		errs [tenants]error
		done [tenants]time.Duration
	)
	for k := range lat {
		lat[k] = make([]int64, 0, blocks)
		size[k] = make([]int32, 0, blocks)
	}
	runtime.GC()
	stats0 := d.Stats()
	mem0 := markMem()

	var wg sync.WaitGroup
	w0 := time.Now()
	for k := 0; k < tenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if recs[k] != nil {
				root[k] = recs[k].begin(kWindow)
			}
			lat[k], size[k], errs[k] = stepBlocks(its[k], blocks, recs[k], lat[k], size[k])
			if recs[k] != nil {
				recs[k].end(root[k])
			}
			done[k] = time.Since(w0)
		}(k)
	}
	wg.Wait()
	// How the two clients' steps interleave differs from run to run, so
	// only the window as a whole is the same work every time.
	res.partNs = []int64{int64(time.Since(w0))}
	res.wallS = float64(res.partNs[0]) / 1e9

	mem1 := markMem()
	stats1 := d.Stats()
	res.mallocs, res.allocBytes = mem1.mallocs-mem0.mallocs, mem1.bytes-mem0.bytes
	res.heapLiveMB = heapLiveMB()
	runtime.KeepAlive(its)

	rateMin, rateMax := 0.0, 0.0
	for k := range its {
		res.stepNs = append(res.stepNs, lat[k]...)
		res.stepSize = append(res.stepSize, size[k]...)
		res.blocks += int64(len(lat[k]))
		res.psteps += sum32(size[k])
		if errs[k] != nil {
			res.failf(name, "tenant %d: %v", k, errs[k])
			res.failed += int64(blocks - len(lat[k]))
			continue
		}
		rate := float64(sum32(size[k])) / done[k].Seconds()
		if k == 0 || rate < rateMin {
			rateMin = rate
		}
		if rate > rateMax {
			rateMax = rate
		}
		if drift := relErr(its[k].Energy(), energy0[k]); !(drift <= maxEnergyErr) {
			res.failf(name, "tenant %d: energy drift %.3g over the window exceeds %.0e", k, drift, maxEnergyErr)
		}
		hash := fmt.Sprintf("%#016x", grape6d.SystemHash(its[k].Synchronize(its[k].T)))
		res.exact[fmt.Sprintf("hash.tenant%d", k)] = hash
		if o, err := e.tenantOracle(k); err != nil {
			res.failf(name, "tenant %d: dedicated-array run: %v", k, err)
		} else if o.hash != hash {
			res.failf(name, "tenant %d: hash %s differs from its dedicated-array run %s", k, hash, o.hash)
		}
		cycles += gbs[k].HWCycles
		retries += gbs[k].Retries
	}
	res.exact["blocks"] = fmt.Sprint(res.blocks)
	res.exact["psteps"] = fmt.Sprint(res.psteps)
	res.exact["gbackend.hw_cycles"] = fmt.Sprint(cycles)
	res.exact["gbackend.retries"] = fmt.Sprint(retries)
	res.layer["gbackend.hw_cycles"] = float64(cycles)
	res.layer["gbackend.retries"] = float64(retries)

	var swaps int64
	var busy time.Duration
	for i := range stats1.Arrays {
		swaps += stats1.Arrays[i].Swaps - stats0.Arrays[i].Swaps
		busy += stats1.Arrays[i].Busy - stats0.Arrays[i].Busy
	}
	var throttled int64
	for i := range stats1.Sessions {
		throttled += stats1.Sessions[i].Throttled - stats0.Sessions[i].Throttled
	}
	res.layer["grape6d.swaps"] = float64(swaps)
	res.layer["grape6d.swaps_per_block"] = float64(swaps) / float64(res.blocks)
	res.layer["grape6d.busy_s"] = busy.Seconds()
	res.layer["grape6d.busy_frac"] = busy.Seconds() / res.wallS
	res.layer["grape6d.throttled"] = float64(throttled)
	// Stats reports the mean fill since start; the window's own mean
	// follows from the two cumulative sums.
	f0, f1 := stats0.Fill, stats1.Fill
	if n := f1.Dispatches - f0.Dispatches; n > 0 {
		res.layer["grape6d.fill_mean"] = (f1.MeanFill*float64(f1.Dispatches) - f0.MeanFill*float64(f0.Dispatches)) / float64(n)
	}
	if rateMax > 0 {
		res.layer["grape6d.fairness"] = rateMin / rateMax
	}
	res.layer["grape6d.block_ms_p99"] = quantile(res.stepNs, 0.99) / 1e6
	if traced {
		res.recs = recs[:]
	}
	return res
}

// tenantsExtra compares the shared fleet with one tenant that has an array
// to itself (the dedicated run the hashes are checked against).
func tenantsExtra(e *env, untraced repResult) map[string]float64 {
	out := map[string]float64{"grape6d.sharing_efficiency": 0}
	o, err := e.tenantOracle(0)
	if err != nil || untraced.wallS == 0 {
		return out
	}
	out["grape6d.sharing_efficiency"] = float64(untraced.psteps) / untraced.wallS / o.pstepsPerS
	return out
}
