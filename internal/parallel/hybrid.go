package parallel

import (
	"fmt"
	"math"

	"grape6/internal/des"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
	"grape6/internal/vtrace"
)

// pforce is a partial force aligned with the row's block order.
type pforce struct {
	acc, jerk vec.V3
	pot       float64
}

// pforceBytes is the wire size of a partial force entry.
const pforceBytes = 56

// Hybrid message tags (per round).
const (
	tagPartial = 100 // + sender column j: partial forces to the diagonal
	tagRowUpd  = 400 // + source cluster: updates broadcast along rows
	tagColUpd  = 500 // + source cluster: updates broadcast along columns
)

// RunGrid executes the two-dimensional algorithm of Makino (2002)
// (Section 3.2): r² hosts form an r×r grid; host (i,j) holds copies of
// particle subsets i and j. Each block step, row i predicts the block
// members of subset i, every host (i,j) computes their partial forces from
// subset j, the partials are summed on the diagonal host (i,i), which
// corrects the particles and broadcasts the updates along its row and
// column. Communication per host is O(N/r) — the square-root scaling that
// motivated both the host grid and the GRAPE hardware network. It is the
// hybrid with a single cluster.
//
// cfg.Hosts must be a perfect square r² with power-of-two r².
func RunGrid(sys *nbody.System, until float64, cfg Config) (*Result, error) {
	if _, ok := gridSide(cfg.Hosts); !ok {
		return nil, fmt.Errorf("parallel: grid needs a power-of-two square host count, got %d", cfg.Hosts)
	}
	return RunHybrid(sys, until, 1, cfg)
}

// RunHybrid executes the production machine's actual parallel structure
// (Section 4.3): the "copy" algorithm ACROSS clusters — each cluster holds
// a complete copy of the system and integrates the block particles whose
// id hashes to it — combined with the 2D grid algorithm WITHIN each
// cluster, where the cluster's r×r hosts hold row/column subsets and the
// diagonal hosts perform the corrections. After every block step the
// diagonal hosts broadcast their updates to the matching rows and columns
// of ALL clusters, which is the inter-cluster traffic that makes the
// multi-cluster crossover sit at such large N (Figures 17-18).
//
// cfg.Hosts must equal Clusters × r² with both Clusters and r² powers of
// two; pass the total host count and the cluster count.
func RunHybrid(sys *nbody.System, until float64, clusters int, cfg Config) (*Result, error) {
	return run(sys, until, cfg, exchange{
		check: func(n int) error {
			if clusters <= 0 || !isPow2(clusters) {
				return fmt.Errorf("parallel: hybrid cluster count %d not a positive power of two", clusters)
			}
			if cfg.Hosts%clusters != 0 {
				return fmt.Errorf("parallel: %d hosts not divisible by %d clusters", cfg.Hosts, clusters)
			}
			r, ok := gridSide(cfg.Hosts / clusters)
			if !ok {
				return fmt.Errorf("parallel: hybrid needs r² hosts per cluster, got %d", cfg.Hosts/clusters)
			}
			if n < r {
				return fmt.Errorf("parallel: %d particles cannot be split over %d subsets", n, r)
			}
			return nil
		},
		build: func(w *world, sys *nbody.System) (hostFunc, []*nbody.System) {
			r, _ := gridSide(cfg.Hosts / clusters) // check has passed
			return buildHybrid(w, sys, clusters, r)
		},
	})
}

// gridSide returns r when hosts is r² and a power of two.
func gridSide(hosts int) (r int, ok bool) {
	r = int(math.Round(math.Sqrt(float64(hosts))))
	return r, r*r == hosts && isPow2(hosts)
}

// gridState is one grid host's storage.
type gridState struct {
	row     *nbody.System   // copy of subset i
	col     *nbody.System   // copy of subset j (same object on the diagonal)
	rowOff  int             // whole-system slot of row's slot 0: i·N/r
	colOff  int             // likewise for col: j·N/r
	backend hermite.Backend // loaded with the column subset
	scratch
	parts [][]pforce     // diagonal: the row's partials, by column
	total []direct.Force // diagonal: their sum
}

// buildHybrid lays the hosts out as clusters × r × r; subset s is the
// contiguous slots [s·N/r, (s+1)·N/r). Every cluster's copy is complete,
// so the final particles are read off cluster 0's diagonal.
func buildHybrid(w *world, sys *nbody.System, clusters, r int) (hostFunc, []*nbody.System) {
	slots := identity(sys.N)
	subset := func(s int) *nbody.System {
		return sys.Subset(slots[s*sys.N/r : (s+1)*sys.N/r])
	}
	states := make([]gridState, w.cfg.Hosts)
	for rank := range states {
		st := &states[rank]
		i, j := rank%(r*r)/r, rank%r
		st.row = subset(i)
		st.col = st.row
		if i != j {
			st.col = subset(j)
		}
		st.rowOff, st.colOff = i*sys.N/r, j*sys.N/r
		st.backend = w.cfg.backendFor(rank)
		st.backend.Load(st.col)
	}
	final := make([]*nbody.System, r)
	for i := range final {
		final[i] = states[i*r+i].row
	}
	host := func(p *des.Proc, rank int, rec *vtrace.Recorder) error {
		return hybridHost(p, rank, clusters, r, w, &states[rank], rec)
	}
	return host, final
}

func hybridHost(p *des.Proc, rank, clusters, r int, w *world, st *gridState, rec *vtrace.Recorder) error {
	cfg, m, net := w.cfg, w.cfg.Machine, w.net
	perCl := r * r
	k := rank / perCl
	i, j := rank%perCl/r, rank%r
	diagRank := k*perCl + i*r + i
	var t float64
	// Partial forces from subset j for the cluster's share. An empty share
	// (most hosts, most rounds) stays a nil slice, here and for ups below:
	// nil boxes into a message payload without allocating, a zero-length
	// make does not.
	var partial []pforce
	job := w.newJob(func() {
		fs := st.forces(st.backend, nil, t, cfg.Params.Eps)
		for q := range partial {
			partial[q] = pforce{acc: fs[q].Acc, jerk: fs[q].Jerk, pot: fs[q].Pot}
		}
	})
	for round := 0; ; round++ {
		tag := round * tagStride
		t = allreduceMin(p, net, rank, cfg.Hosts, tag+tagMin, st.row.MinTime(), rec)
		if t > w.until {
			return nil
		}
		// The block members of subset i (identical across row i of every
		// cluster), then this cluster's share of them.
		st.selectBlock(st.row, t, clusters, k)
		block := st.mine

		partial = nil
		if len(block) > 0 {
			partial = make([]pforce, len(block))
			st.predict(st.row, block, t)
			job.kick()
			p.SleepAs(int(vtrace.Grape), m.GrapeTimeHost(len(block), st.col.N))
			p.SleepAs(int(vtrace.CommSend), m.LinkTime(len(block)))
			job.wait()
		}

		if rank != diagRank {
			// Ship partials to the cluster's diagonal.
			net.Send(rank, diagRank, tag+tagPartial+j, len(partial)*pforceBytes, partial)

			// Row updates for subset i from every cluster's diagonal i.
			for kk := 0; kk < clusters; kk++ {
				msg := net.Recv(p, rank, tag+tagRowUpd+kk)
				st.absorb(st.row, st.rowOff, msg.Payload.([]update), nil)
			}
			// Column updates for subset j from every cluster's diagonal j,
			// applied to the column copy feeding the force backend.
			for kk := 0; kk < clusters; kk++ {
				msg := net.Recv(p, rank, tag+tagColUpd+kk)
				st.absorb(st.col, st.colOff, msg.Payload.([]update), st.backend)
			}
			continue
		}

		// Gather partials from the cluster's row (including our own) and
		// correct on the diagonal host.
		if st.parts == nil {
			st.parts = make([][]pforce, r)
		}
		st.parts[j] = partial
		for jj := 0; jj < r; jj++ {
			if jj != j {
				st.parts[jj] = net.Recv(p, rank, tag+tagPartial+jj).Payload.([]pforce)
			}
		}
		var err error
		if st.total, err = sumPartials(st.total[:0], st.parts, len(block)); err != nil {
			return err
		}
		for jj := range st.parts {
			st.parts[jj] = nil // unpin the received partials until next round
		}
		var ups []update
		if len(block) > 0 {
			ups = make([]update, 0, len(block))
			for q, ix := range block {
				ups = append(ups, correctParticle(st.row, st.rowOff, ix, st.total[q], t, cfg.Params))
			}
			p.SleepAs(int(vtrace.HostWork), m.HostWork(len(block), st.row.N*r))
			st.backend.Update(st.col, block) // col == row on the diagonal
		}

		// Broadcast to row i and column i of EVERY cluster (including the
		// other clusters' diagonals), tagging by source cluster. The slice
		// is boxed once here, not once per destination inside Send's
		// argument list: every receiver reads the same payload anyway.
		var payload interface{} = ups
		for kk := 0; kk < clusters; kk++ {
			for x := 0; x < r; x++ {
				rowPeer := kk*perCl + i*r + x
				colPeer := kk*perCl + x*r + i
				if rowPeer != rank {
					net.Send(rank, rowPeer, tag+tagRowUpd+k, len(ups)*updateBytes, payload)
				}
				if colPeer != rank && colPeer != rowPeer {
					net.Send(rank, colPeer, tag+tagColUpd+k, len(ups)*updateBytes, payload)
				}
			}
		}

		// Receive the other clusters' updates for subset i (this host is
		// both row-i and column-i; the senders skip duplicate row/col
		// targets, so exactly one message per other diagonal).
		for kk := 0; kk < clusters; kk++ {
			if kk != k {
				msg := net.Recv(p, rank, tag+tagRowUpd+kk)
				st.absorb(st.row, st.rowOff, msg.Payload.([]update), st.backend)
			}
		}
		w.count(rank, round, len(block))
	}
}

// sumPartials appends to dst the n total forces Σ_j parts[j][q], summed in
// fixed column order for determinism. Every column must have sent exactly
// n partials.
func sumPartials(dst []direct.Force, parts [][]pforce, n int) ([]direct.Force, error) {
	for jj, part := range parts {
		if len(part) != n {
			return dst, fmt.Errorf("column %d sent %d partial forces for a block of %d", jj, len(part), n)
		}
	}
	for q := 0; q < n; q++ {
		f := direct.Force{NN: -1}
		for _, part := range parts {
			f.Acc = f.Acc.Add(part[q].acc)
			f.Jerk = f.Jerk.Add(part[q].jerk)
			f.Pot += part[q].pot
		}
		dst = append(dst, f)
	}
	return dst, nil
}
