package parallel

import (
	"fmt"

	"grape6/internal/des"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
	"grape6/internal/vtrace"
)

// ipacket is a predicted i-particle circulating around the ring,
// accumulating partial forces host by host.
type ipacket struct {
	id      int
	x, v    vec.V3
	acc     vec.V3
	jerk    vec.V3
	pot     float64
	ownerIx int // slot index on the owning host
}

// ipacketBytes is the wire size of one packet: 13 floats + 2 ints ≈ 120.
const ipacketBytes = 120

// RunRing executes the "ring" algorithm (Section 3.2): each host owns a
// disjoint N/p subset; the block's predicted particles travel around the
// ring, picking up the partial force from each host's local particles, and
// return to their owners after p hops for correction. Host-host and
// host-GRAPE communication per block step is independent of the host
// count — the property that made the simple configuration of Figure 10
// communication-bound.
//
// The host count must be a power of two (the butterfly min-reduction that
// finds the global block time requires it).
func RunRing(sys *nbody.System, until float64, cfg Config) (*Result, error) {
	return run(sys, until, cfg, exchange{
		check: func(n int) error {
			if !isPow2(cfg.Hosts) {
				return fmt.Errorf("parallel: ring algorithm needs a power-of-two host count, got %d", cfg.Hosts)
			}
			if n < cfg.Hosts {
				return fmt.Errorf("parallel: %d particles cannot be split over %d hosts", n, cfg.Hosts)
			}
			return nil
		},
		build: buildRing,
	})
}

// buildRing gives host h the contiguous slots [h·N/p, (h+1)·N/p).
func buildRing(w *world, sys *nbody.System) (hostFunc, []*nbody.System) {
	hosts, slots := w.cfg.Hosts, identity(sys.N)
	parts := make([]*nbody.System, hosts)
	backends := make([]hermite.Backend, hosts)
	for h := range parts {
		parts[h] = sys.Subset(slots[h*sys.N/hosts : (h+1)*sys.N/hosts])
		backends[h] = w.cfg.backendFor(h)
		backends[h].Load(parts[h])
	}
	host := func(p *des.Proc, rank int, rec *vtrace.Recorder) error {
		return ringHost(p, rank, w, parts[rank], backends[rank], rec)
	}
	return host, parts
}

// checkRingReturn verifies that the circulated packet list came home
// intact: the same number of packets AND, for each one, that the id it
// carries matches the owner slot it claims. Comparing lengths alone (the
// pre-fix behaviour) would let a tag or stage-count bug that preserves
// length silently correct the wrong particles with the wrong forces.
func checkRingReturn(S *nbody.System, sent, returned []ipacket) error {
	if len(returned) != len(sent) {
		return fmt.Errorf("ring packets lost: sent %d, received %d after full circulation", len(sent), len(returned))
	}
	for k, pk := range returned {
		if pk.ownerIx < 0 || pk.ownerIx >= S.N {
			return fmt.Errorf("ring packet %d returned with owner slot %d out of range [0,%d)", k, pk.ownerIx, S.N)
		}
		if S.ID[pk.ownerIx] != pk.id {
			return fmt.Errorf("ring packet %d returned with id %d, but owner slot %d holds particle %d",
				k, pk.id, pk.ownerIx, S.ID[pk.ownerIx])
		}
	}
	return nil
}

func ringHost(p *des.Proc, h int, w *world, S *nbody.System, backend hermite.Backend, rec *vtrace.Recorder) error {
	cfg, m, net := w.cfg, w.cfg.Machine, w.net
	next := (h + 1) % cfg.Hosts
	var sc scratch
	var t float64
	var held []ipacket
	// The job adds the local subset's partial forces to the held packets.
	job := w.newJob(func() {
		fs := sc.forces(backend, nil, t, cfg.Params.Eps)
		for k := range held {
			held[k].acc = held[k].acc.Add(fs[k].Acc)
			held[k].jerk = held[k].jerk.Add(fs[k].Jerk)
			held[k].pot += fs[k].Pot
		}
	})
	for round := 0; ; round++ {
		t = allreduceMin(p, net, h, cfg.Hosts, round*tagStride+tagMin, S.MinTime(), rec)
		if t > w.until {
			return nil
		}

		// Build this host's packets. Packet lists are message payloads and
		// stay freshly allocated.
		sc.selectBlock(S, t, 1, 0)
		sc.predict(S, sc.block, t)
		packets := make([]ipacket, len(sc.block))
		for k, i := range sc.block {
			packets[k] = ipacket{id: S.ID[i], x: sc.xs[k], v: sc.vs[k], ownerIx: i}
		}

		// p stages: compute partial forces on the held packet list from
		// the local subset, then pass it along the ring.
		held = packets
		for stage := 0; stage < cfg.Hosts; stage++ {
			if len(held) > 0 {
				sc.xs, sc.vs = sc.xs[:0], sc.vs[:0]
				for _, pk := range held {
					sc.xs = append(sc.xs, pk.x)
					sc.vs = append(sc.vs, pk.v)
				}
				job.kick()
				p.SleepAs(int(vtrace.Grape), m.GrapeTimeHost(len(held), S.N))
				p.SleepAs(int(vtrace.CommSend), m.LinkTime(len(held)))
				job.wait()
			}
			net.Send(h, next, round*tagStride+stage, len(held)*ipacketBytes, held)
			held = net.Recv(p, h, round*tagStride+stage).([]ipacket)
		}

		// After p hops the packets are home with complete forces — verify
		// identity, not just count.
		if err := checkRingReturn(S, packets, held); err != nil {
			return err
		}
		for _, pk := range held {
			f := direct.Force{Acc: pk.acc, Jerk: pk.jerk, Pot: pk.pot, NN: -1}
			hermite.Advance(S, pk.ownerIx, f, t, cfg.Params)
		}
		if len(held) > 0 {
			p.SleepAs(int(vtrace.HostWork), m.HostWork(len(held), S.N*cfg.Hosts))
			sc.changed = sc.changed[:0]
			for _, pk := range held {
				sc.changed = append(sc.changed, pk.ownerIx)
			}
			backend.Update(S, sc.changed)
		}
		w.count(h, round, len(held))
	}
}
