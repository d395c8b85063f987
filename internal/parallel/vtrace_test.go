package parallel

import (
	"math"
	"reflect"
	"testing"

	"grape6/internal/des"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/vtrace"
)

func recordConfig(hosts int) Config {
	cfg := testConfig(hosts)
	cfg.Record = true
	return cfg
}

// runAlgo dispatches by name so the invariant tests sweep all four
// algorithms.
func runAlgo(t *testing.T, algo string, n int, seed uint64, until float64, clusters int, cfg Config) *Result {
	t.Helper()
	res, err := Run(algo, plummer(n, seed), until, clusters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole invariant: with recording on, every rank's phase spans tile
// [0, VirtualTime] and the phase totals sum to VirtualTime EXACTLY.
func TestBreakdownTilesVirtualTime(t *testing.T) {
	cases := []struct {
		algo            string
		hosts, clusters int
	}{
		{"copy", 1, 1}, {"copy", 4, 1},
		{"ring", 2, 1}, {"ring", 4, 1},
		{"grid", 4, 1},
		{"hybrid", 8, 2},
	}
	for _, tc := range cases {
		res := runAlgo(t, tc.algo, 96, 7, 0.03125, tc.clusters, recordConfig(tc.hosts))
		if res.Breakdown == nil || res.Trace == nil {
			t.Fatalf("%s/%d: Record set but no breakdown/trace", tc.algo, tc.hosts)
		}
		if len(res.Breakdown.Ranks) != tc.hosts {
			t.Fatalf("%s/%d: %d ranks in breakdown", tc.algo, tc.hosts, len(res.Breakdown.Ranks))
		}
		if res.Breakdown.End != res.VirtualTime {
			t.Errorf("%s/%d: breakdown end %v != virtual time %v",
				tc.algo, tc.hosts, res.Breakdown.End, res.VirtualTime)
		}
		for rank, totals := range res.Breakdown.Ranks {
			if got := totals.Sum(); got != res.VirtualTime {
				t.Errorf("%s/%d rank %d: phase sum %v != virtual time %v (diff %g)",
					tc.algo, tc.hosts, rank, got, res.VirtualTime, got-res.VirtualTime)
			}
		}
		// The span chains re-verify on demand.
		if err := res.Trace.Check(res.VirtualTime); err != nil {
			t.Errorf("%s/%d: %v", tc.algo, tc.hosts, err)
		}
		// The observer's traffic matrix must agree with the network's
		// global counters.
		var msgs int64
		for from := 0; from < tc.hosts; from++ {
			for to := 0; to < tc.hosts; to++ {
				msgs += res.Trace.Messages(from, to)
			}
		}
		if msgs != res.Messages {
			t.Errorf("%s/%d: matrix total %d != counter %d", tc.algo, tc.hosts, msgs, res.Messages)
		}
	}
}

// Recording must be observation only: the integration arithmetic and the
// virtual clock are bit-identical with and without it.
func TestRecordingDoesNotPerturbRun(t *testing.T) {
	plain := runAlgo(t, "ring", 64, 5, 0.0625, 1, testConfig(4))
	traced := runAlgo(t, "ring", 64, 5, 0.0625, 1, recordConfig(4))
	if plain.VirtualTime != traced.VirtualTime {
		t.Errorf("virtual time changed: %v vs %v", plain.VirtualTime, traced.VirtualTime)
	}
	if plain.Messages != traced.Messages || plain.Bytes != traced.Bytes {
		t.Error("traffic counters changed under recording")
	}
	for i := 0; i < plain.Sys.N; i++ {
		if plain.Sys.Pos[i] != traced.Sys.Pos[i] || plain.Sys.Vel[i] != traced.Sys.Vel[i] {
			t.Fatalf("particle %d diverged under recording", i)
		}
	}
}

// Two identical recorded runs must agree bit for bit — final systems AND
// the full breakdowns (run under -race in the verify gauntlet).
func TestRecordedRunsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		algo            string
		hosts, clusters int
	}{{"ring", 4, 1}, {"hybrid", 8, 2}} {
		a := runAlgo(t, tc.algo, 64, 13, 0.0625, tc.clusters, recordConfig(tc.hosts))
		b := runAlgo(t, tc.algo, 64, 13, 0.0625, tc.clusters, recordConfig(tc.hosts))
		if a.VirtualTime != b.VirtualTime {
			t.Errorf("%s: virtual times differ", tc.algo)
		}
		for i := 0; i < a.Sys.N; i++ {
			if a.Sys.Pos[i] != b.Sys.Pos[i] || a.Sys.Vel[i] != b.Sys.Vel[i] {
				t.Fatalf("%s: particle %d differs between identical runs", tc.algo, i)
			}
		}
		if !reflect.DeepEqual(a.Breakdown, b.Breakdown) {
			t.Errorf("%s: breakdowns differ between identical runs", tc.algo)
		}
		if !reflect.DeepEqual(a.BlockSizes, b.BlockSizes) {
			t.Errorf("%s: block-size records differ", tc.algo)
		}
	}
}

// With one host the copy driver charges exactly the analytic per-block
// formulas (nbLocal == nb, no network), so replaying the recorded block
// sizes through timing must reproduce the breakdown to FP accumulation
// error.
func TestCrossCheckSingleHostExact(t *testing.T) {
	res := runAlgo(t, "copy", 96, 3, 0.0625, 1, recordConfig(1))
	rep := timing.ReportForBlocks(
		perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon), 96, res.BlockSizes)
	m := res.Breakdown.Mean()
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: cosim %v, model %v", name, got, want)
		}
	}
	check("host", m.Host(), rep.Host)
	check("grape", m.Grape(), rep.Grape)
	check("comm", m.Comm(), rep.Comm)
	check("sync", m.Sync(), rep.Sync) // both zero: no network
	// Idle is only the FP reconciliation residue Close folds in to make
	// the sum exact — a lone host is never actually idle.
	if math.Abs(m[vtrace.Idle]) > 1e-12 {
		t.Errorf("single host idle = %v, want ~0", m[vtrace.Idle])
	}
}

// Multi-host, the two decompositions are structurally different models of
// the same block sequence (the analytic side charges ceil(nb/hosts) per
// host, a DMA setup every block, and an 8-byte barrier; the event side
// records actual shares and payloads), so they agree only within bands.
// The bands here are the measured envelopes ±margin, documented in
// DESIGN.md §8; a change that breaks the attribution plumbing moves these
// ratios by far more than the slack.
func TestCrossCheckMultiHostBands(t *testing.T) {
	type band struct{ lo, hi float64 }
	cases := []struct {
		algo                    string
		hosts                   int
		host, grape, comm, sync band
	}{
		// Measured at N=128, t=0.0625, NS83820: 0.90-0.97 / 0.70-0.90 /
		// 0.74-0.92 / 0.61-0.64.
		{"copy", 2, band{0.6, 1.3}, band{0.5, 1.3}, band{0.5, 1.3}, band{0.35, 1.1}},
		{"copy", 4, band{0.6, 1.3}, band{0.5, 1.3}, band{0.5, 1.3}, band{0.35, 1.1}},
		// Measured: 0.90 / 0.86 / 1.03 / 1.18.
		{"grid", 4, band{0.6, 1.3}, band{0.5, 1.4}, band{0.6, 1.6}, band{0.6, 1.9}},
		// The ring circulates every packet through all p hosts: p GRAPE
		// evaluations (against N/p-sized j-sets) and p DMA transfers per
		// particle, where the analytic model charges one — grape and comm
		// land near p× with the per-call overheads. Measured at p=4:
		// 0.90 / 2.9 / 3.1 / 1.6.
		{"ring", 4, band{0.6, 1.3}, band{1.5, 4.5}, band{1.5, 4.5}, band{0.8, 2.6}},
	}
	for _, tc := range cases {
		res := runAlgo(t, tc.algo, 128, 11, 0.0625, 1, recordConfig(tc.hosts))
		rep := timing.ReportForBlocks(
			perfmodel.MultiNode(tc.hosts, simnet.NS83820, perfmodel.Athlon), 128, res.BlockSizes)
		m := res.Breakdown.Mean()
		check := func(name string, got, want float64, b band) {
			if want <= 0 {
				t.Fatalf("%s/%d %s: model component %v not positive", tc.algo, tc.hosts, name, want)
			}
			if r := got / want; r < b.lo || r > b.hi {
				t.Errorf("%s/%d %s: cosim/model = %v outside [%v,%v] (cosim %v, model %v)",
					tc.algo, tc.hosts, name, r, b.lo, b.hi, got, want)
			}
		}
		check("host", m.Host(), rep.Host, tc.host)
		check("grape", m.Grape(), rep.Grape, tc.grape)
		check("comm", m.Comm(), rep.Comm, tc.comm)
		check("sync", m.Sync(), rep.Sync, tc.sync)
	}
}

func TestCheckRingReturn(t *testing.T) {
	S := plummer(8, 1)
	sent := []ipacket{{id: S.ID[2], ownerIx: 2}, {id: S.ID[5], ownerIx: 5}}
	if err := checkRingReturn(S, sent, sent); err != nil {
		t.Errorf("intact return rejected: %v", err)
	}
	if err := checkRingReturn(S, sent, sent[:1]); err == nil {
		t.Error("lost packet accepted")
	}
	// Length-preserving corruption — the case the old length-only check
	// let through: a packet comes home claiming the wrong owner slot.
	swapped := []ipacket{sent[0], {id: S.ID[5], ownerIx: 4}}
	if err := checkRingReturn(S, sent, swapped); err == nil {
		t.Error("id/owner mismatch accepted")
	}
	oob := []ipacket{sent[0], {id: S.ID[5], ownerIx: 99}}
	if err := checkRingReturn(S, sent, oob); err == nil {
		t.Error("out-of-range owner slot accepted")
	}
}

// A corrupted circulation must surface as an ERROR from the ring host
// (the pre-fix code panicked): a rogue peer that drops a packet from the
// circulating list makes ringHost return, not crash.
func TestRingHostSurfacesCirculationError(t *testing.T) {
	cfg := testConfig(2)
	sys := plummer(4, 9)
	if err := initForces(sys, cfg); err != nil {
		t.Fatal(err)
	}
	// Rank 0 runs the real ring host on its half of the system.
	part := sys.Subset(identity(2))
	backend := cfg.backendFor(0)
	backend.Load(part)

	eng := des.New()
	w := newWorld(eng, cfg, 1.0)
	net := w.net
	defer startWorkers(w.jobs)()
	var hostErr error
	eng.Spawn("ring0", func(p *des.Proc) {
		hostErr = ringHost(p, 0, w, part, backend, nil)
	})
	// Rank 1 is a rogue: it joins the block-time agreement, then for each
	// circulation stage swallows the incoming packet list and forwards it
	// with the last packet dropped — a corruption the old length-only
	// check would catch, but delivered here to exercise the error path
	// end to end (no panic, error propagates out of the stage loop).
	eng.Spawn("rogue1", func(p *des.Proc) {
		allreduceMin(p, net, 1, 2, 2048, math.Inf(1), nil)
		for stage := 0; stage < 2; stage++ {
			msg := net.Recv(p, 1, stage)
			held := msg.Payload.([]ipacket)
			if len(held) > 0 {
				held = held[:len(held)-1]
			}
			net.Send(1, 0, stage, len(held)*ipacketBytes, held)
		}
	})
	eng.RunAll()
	if eng.Live() != 0 {
		t.Fatalf("%d processes deadlocked", eng.Live())
	}
	if hostErr == nil {
		t.Fatal("corrupted circulation did not surface as an error")
	}
}
