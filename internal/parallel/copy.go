package parallel

import (
	"fmt"

	"grape6/internal/des"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vtrace"
)

// RunCopy executes the "copy" algorithm (Sections 3.2 and 4.3): each host
// holds the complete system, integrates the block particles whose id
// hashes to it, and allgathers the updated particles after every block
// step. The amount of communication per block is independent of the host
// count — which is exactly why its synchronization overhead dominates at
// small N (Figure 18).
//
// The host count must be a power of two (the machine's configurations are
// 1..16).
func RunCopy(sys *nbody.System, until float64, cfg Config) (*Result, error) {
	return run(sys, until, cfg, exchange{
		check: func(n int) error {
			if !isPow2(cfg.Hosts) {
				return fmt.Errorf("parallel: copy algorithm needs a power-of-two host count, got %d", cfg.Hosts)
			}
			return nil
		},
		build: buildCopy,
	})
}

// copyState is one copy host's storage: a full replica, so an update's
// slot is its slot here.
type copyState struct {
	sys     *nbody.System
	backend hermite.Backend // loaded with the replica
}

func buildCopy(w *world, sys *nbody.System) (hostFunc, []*nbody.System) {
	states := make([]copyState, w.cfg.Hosts)
	for h := range states {
		st := &states[h]
		st.sys = sys.Clone()
		st.backend = w.cfg.backendFor(h)
		st.backend.Load(st.sys)
	}
	host := func(p *des.Proc, rank int, _ *vtrace.Recorder) error {
		return copyHost(p, rank, w, &states[rank])
	}
	return host, []*nbody.System{states[0].sys}
}

func copyHost(p *des.Proc, h int, w *world, st *copyState) error {
	cfg, m, S := w.cfg, w.cfg.Machine, st.sys
	var sc scratch
	// ups is reusable although it is a payload: only private copies of it
	// travel through the network (gatherUpdates ships a fresh copy per
	// exchange round).
	var ups []update
	var t float64
	var fs []direct.Force
	job := w.newJob(func() { fs = sc.forces(st.backend, sc.mine, t, cfg.Params.Eps) })
	for round := 0; ; round++ {
		t = S.MinTime()
		if t > w.until {
			return nil
		}
		sc.selectBlock(S, t, cfg.Hosts, h)
		mine := sc.mine

		ups = ups[:0]
		if len(mine) > 0 {
			sc.predict(S, mine, t)
			job.kick()

			// Charge the modelled compute time, attributed per phase:
			// frontend work, GRAPE pipelines over the full stored system,
			// and the DMA link. The forces are evaluated on a worker
			// meanwhile (grapeJob: kick, sleep, collect).
			p.SleepAs(int(vtrace.HostWork), m.HostWork(len(mine), S.N))
			p.SleepAs(int(vtrace.Grape), m.GrapeTimeHost(len(mine), S.N))
			p.SleepAs(int(vtrace.CommSend), m.LinkTime(len(mine)))

			job.wait()
			for k, i := range mine {
				ups = append(ups, correctParticle(S, 0, i, fs[k], t, cfg.Params))
			}
		}

		// Exchange updated particles: recursive-doubling allgather, the
		// "butterfly message exchange" of Section 4.4. The host's own
		// updates come back in the list; absorbing them rewrites what
		// correctParticle stored and refreshes the backend with the rest.
		all := gatherUpdates(p, w.net, h, cfg.Hosts, round*tagStride, ups)
		sc.absorb(S, 0, all, st.backend)
		w.count(h, round, len(mine))
	}
}
