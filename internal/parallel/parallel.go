// Package parallel co-simulates the paper's parallel individual-timestep
// integration (Sections 3.2 and 4.2-4.3) at message level: simulated hosts
// execute the REAL Hermite arithmetic (so final particle states are
// testable against the single-host integrator) while sleeping in virtual
// time for their modelled compute costs, and all host-host traffic goes
// through the simulated network. The virtual clock at completion is the
// predicted wall-clock of the run. A host's force evaluation runs on a
// worker goroutine while the host sleeps through its modelled GRAPE time
// (grapeJob), so a run uses every core and still repeats bit for bit.
//
// Every run is the same block-step loop — agree on the next block time,
// predict the block, evaluate forces, correct, make the corrected
// particles known where they are stored — inside the same skeleton (run:
// validation, common initial forces, engine/network/trace set-up, one
// process per host, error and deadlock reporting, reassembly of the final
// system). What differs is how particles move between hosts, and there
// are three such exchanges:
//
//   - copy (RunCopy): every host holds the complete system and integrates
//     the block particles whose id hashes to it; the corrected particles
//     are allgathered afterwards — the paper's multi-cluster strategy;
//   - ring (RunRing): each host owns a disjoint subset and the block's
//     predicted particles circulate around a ring accumulating partial
//     forces — the simple distributed-memory baseline;
//   - hybrid (RunHybrid): copy across clusters, and within each cluster the
//     two-dimensional algorithm of Makino (2002), where an r×r host grid
//     holds row/column copies, partial forces are summed on the diagonal
//     and communication per host scales as O(N/r) — the production
//     machine's structure.
//
// The 2D grid algorithm on its own (RunGrid) is the hybrid with one
// cluster.
package parallel

import (
	"fmt"

	"grape6/internal/des"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/vtrace"
)

// Config parameterises a parallel run.
type Config struct {
	Hosts   int
	NIC     simnet.NIC
	Machine perfmodel.Machine // per-host hardware and frontend model
	Params  hermite.Params

	// NewBackend, when non-nil, builds the force backend for each
	// simulated host (e.g. an emulated GRAPE attachment per host). Nil
	// uses the float64 DirectBackend. Each host gets its own instance,
	// and its force evaluations run on a worker goroutine while other
	// hosts' do (grapeJob): an instance must share no mutable state with
	// another rank's instance.
	//
	// Rank -1 is a sentinel: initForces calls NewBackend(-1) once for a
	// throwaway backend that computes the common initial forces before
	// any per-rank instance exists. Implementations that index per-rank
	// state must treat -1 as "shared setup", not a rank.
	//
	// A copy host passes its block's slots in its replica to ForcesInto.
	// Ring, grid and hybrid hosts evaluate visiting i-particles, not
	// particles of the subset they loaded, and pass nil slots (see
	// hermite.Backend). The gbackend (emulated GRAPE) predicts
	// i-particles from its own j-memory image and panics on nil slots,
	// so it serves the copy algorithm only — use position-honouring
	// backends for the others.
	NewBackend func(rank int) hermite.Backend

	// Record enables per-phase virtual-time accounting (internal/vtrace):
	// the run fills Result.Breakdown and Result.Trace, and the span-tiling
	// invariant is checked before the result is returned. When false the
	// hosts take the nil-recorder fast path — no accounting overhead.
	Record bool
}

// backendFor builds the rank's force backend.
func (c Config) backendFor(rank int) hermite.Backend {
	if c.NewBackend != nil {
		return c.NewBackend(rank)
	}
	return hermite.NewDirectBackend()
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Hosts <= 0 {
		return fmt.Errorf("parallel: non-positive host count %d", c.Hosts)
	}
	if err := c.NIC.Validate(); err != nil {
		return err
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return c.Params.Validate()
}

// Result is the outcome of a parallel run.
type Result struct {
	Sys         *nbody.System // final particle states (gathered)
	VirtualTime float64       // predicted wall-clock, seconds
	Steps       int64         // individual particle steps
	Blocks      int64         // block steps
	Messages    int64         // host-host messages
	Bytes       int64         // host-host traffic

	// BlockSizes[r] is the GLOBAL number of particles integrated in block
	// round r (always recorded; one int per block). It feeds the analytic
	// cross-check: timing.ReportForBlocks replays the same block structure
	// through the perfmodel decomposition.
	BlockSizes []int

	// Breakdown and Trace are populated when Config.Record is set:
	// per-rank phase totals whose sums equal VirtualTime exactly, and the
	// full span set for Chrome trace-event export.
	Breakdown *vtrace.Breakdown
	Trace     *vtrace.Set
}

// StepsPerSecond returns the individual-step rate in virtual time.
func (r *Result) StepsPerSecond() float64 {
	if r.VirtualTime <= 0 {
		return 0
	}
	return float64(r.Steps) / r.VirtualTime
}

// entryPoints is the one table of algorithm names.
var entryPoints = map[string]func(sys *nbody.System, until float64, clusters int, cfg Config) (*Result, error){
	"copy":   func(s *nbody.System, u float64, _ int, c Config) (*Result, error) { return RunCopy(s, u, c) },
	"ring":   func(s *nbody.System, u float64, _ int, c Config) (*Result, error) { return RunRing(s, u, c) },
	"grid":   func(s *nbody.System, u float64, _ int, c Config) (*Result, error) { return RunGrid(s, u, c) },
	"hybrid": RunHybrid,
}

// Known reports whether Run accepts algo.
func Known(algo string) bool { return entryPoints[algo] != nil }

// Run executes the algorithm named algo: "copy", "ring", "grid" or
// "hybrid". clusters is read by the hybrid only.
func Run(algo string, sys *nbody.System, until float64, clusters int, cfg Config) (*Result, error) {
	f := entryPoints[algo]
	if f == nil {
		return nil, fmt.Errorf("parallel: unknown algorithm %q", algo)
	}
	return f(sys, until, clusters, cfg)
}

// exchange is what one way of moving particles between hosts supplies to
// the run skeleton.
type exchange struct {
	// check rejects host counts and system sizes the exchange cannot lay
	// out.
	check func(n int) error
	// build carves every rank's storage out of the force-initialised
	// system. It returns the body of rank's process and the systems that
	// between them hold every particle's final state when the run ends.
	build func(w *world, sys *nbody.System) (host hostFunc, final []*nbody.System)
}

// hostFunc is one simulated host: it runs block steps until the next
// block time passes the end of the run. An error makes the host stop
// taking part, and fails the run.
type hostFunc func(p *des.Proc, rank int, rec *vtrace.Recorder) error

// world is what the host processes of one run share. Simulated processes
// execute one at a time under the DES discipline, so their writes to res
// never actually race. jobs is the queue of the workers that run the
// hosts' force evaluations (grapeJob).
type world struct {
	cfg   Config
	net   *simnet.Network
	until float64
	res   *Result
	jobs  chan *grapeJob
}

// newWorld sets up a run's shared state on eng. The job queue holds one job
// per host, the most that can be in flight.
func newWorld(eng *des.Engine, cfg Config, until float64) *world {
	return &world{
		cfg: cfg, net: simnet.New(eng, cfg.NIC, cfg.Hosts), until: until, res: &Result{},
		jobs: make(chan *grapeJob, cfg.Hosts),
	}
}

// count books n particle steps taken by rank in block round `round`. The
// ranks that correct particles hold disjoint shares of the block, so their
// counts sum to its global size.
func (w *world) count(rank, round, n int) {
	res := w.res
	if rank == 0 {
		res.Blocks++
	}
	res.Steps += int64(n)
	for len(res.BlockSizes) <= round {
		res.BlockSizes = append(res.BlockSizes, 0)
	}
	res.BlockSizes[round] += n
}

// run is everything outside the host loop.
func run(sys *nbody.System, until float64, cfg Config, ex exchange) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ex.check(sys.N); err != nil {
		return nil, err
	}
	if err := initForces(sys, cfg); err != nil {
		return nil, err
	}

	eng := des.New()
	w := newWorld(eng, cfg, until)
	var set *vtrace.Set
	if cfg.Record {
		set = vtrace.NewSet(cfg.Hosts)
		w.net.Observe(set)
	}
	host, final := ex.build(w, sys)

	errs := make([]error, cfg.Hosts)
	for rank := 0; rank < cfg.Hosts; rank++ {
		rank := rank
		eng.Spawn(fmt.Sprintf("host%d", rank), func(p *des.Proc) {
			rec := set.Recorder(rank)
			if rec != nil {
				p.Observe(rec) // SleepAs spans land on the rank's recorder
			}
			errs[rank] = host(p, rank, rec)
		})
	}
	// The workers stop when run returns, however RunAll ended — a finished
	// run, a host error, a deadlock or a panic — so none outlives the run.
	stop := startWorkers(w.jobs)
	defer stop()
	eng.RunAll()
	// A host that bailed out with an error stops participating, which
	// deadlocks its peers — report the root cause, not the symptom.
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parallel: host %d: %w", rank, err)
		}
	}
	if eng.Live() != 0 {
		return nil, fmt.Errorf("parallel: %d hosts deadlocked", eng.Live())
	}

	// Gather the final states into the input's particle order: the final
	// parts hold consecutive slot ranges, in order.
	res := w.res
	res.Sys = nbody.New(sys.N)
	slot := 0
	for _, part := range final {
		for i := 0; i < part.N; i++ {
			res.Sys.CopyParticle(slot, part, i)
			slot++
		}
	}
	res.VirtualTime = eng.Now()
	res.Messages = w.net.MessagesSent
	res.Bytes = w.net.BytesSent
	if set != nil {
		// Close the accounting at the engine end time and enforce the
		// span-tiling invariant on every rank before publishing.
		set.Close(res.VirtualTime)
		if err := set.Check(res.VirtualTime); err != nil {
			return nil, err
		}
		res.Trace = set
		res.Breakdown = set.Breakdown()
	}
	return res, nil
}

// initForces performs the shared initialisation: forces, potentials and
// startup timesteps for the whole system at its (common) initial time,
// exactly as hermite.New does — INCLUDING going through the configured
// backend type, so that a run on emulated hardware starts from
// hardware-rounded initial forces and stays bit-comparable with a
// single-host run on the same hardware. Every exchange starts from this
// common state.
func initForces(sys *nbody.System, cfg Config) error {
	p := cfg.Params
	if err := sys.Validate(); err != nil {
		return err
	}
	if sys.N == 0 {
		return fmt.Errorf("parallel: empty system")
	}
	t0 := sys.Time[0]
	for _, t := range sys.Time {
		if t != t0 {
			return fmt.Errorf("parallel: unsynchronised initial times")
		}
	}
	b := cfg.backendFor(-1)
	b.Load(sys)
	whole := scratch{xs: sys.Pos, vs: sys.Vel} // one block, already at t0
	fs := whole.forces(b, identity(sys.N), t0, p.Eps)
	for i := range fs {
		hermite.Start(sys, i, fs[i], t0, p)
	}
	return nil
}

// identity returns the slots 0..n-1; its subslices are the contiguous
// slot ranges nbody.System.Subset is asked for.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
