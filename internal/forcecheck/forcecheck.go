// Package forcecheck is the seeded oracle of the Section 3.4 partition
// invariance, "exactly the same results on machines with different
// sizes": however the j-set is cut over chips, spans of a chip and pages
// in time, and whichever tenant's image an array held before, the exact
// block-floating-point reduction gives the bits of one chip holding the
// whole set.
//
// A Case fixes a Plummer j-set (N, ids, ε), a machine (chips, modules,
// boards, per-chip memory, GOMAXPROCS, fleet, a noise tenant) and a
// schedule of Steps (times with repeats, batches of 1–97, Hermite
// corrections written back by UpdateJ or by a LoadJ reload). Run drives
// it through every force path of the emulator at once:
//
//   - board.Array.ForcesInto on a dedicated array;
//   - a grape6d lease of the same shape, whose cycles must equal the
//     dedicated array's;
//   - gbackend.Backend owning a dedicated array, and borrowing a lease of
//     a second fleet, whose forces, retries and cycles must agree;
//
// and holds every partial and force, bit for bit, to a one-chip, one-page
// reference. Draw makes a Case from a seed; Run reports what the case
// exercised as Coverage, computed from the case and the scheduler's own
// statistics, so the emulator carries no counters for it.
//
// Only tests import this package.
package forcecheck

import (
	"fmt"
	"runtime"
	"testing"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/xrand"
)

// IDs labels the particles of a Case.
type IDs int

const (
	Dense    IDs = iota // 0 … N−1: the id indexes are dense tables
	Sparse              // 10⁶ + 37·i: the id indexes fall back to maps
	Negative            // 3·i − N: negative and non-negative ids
)

// A Case is one run of the checker.
type Case struct {
	N    int
	Seed uint64 // draws the Plummer model (Draw's seed, in a drawn case)
	IDs  IDs
	Eps  float64
	// HW is the shape of every array: chips per module, modules, boards,
	// and Chip.MemCapacity, which decides one page or several.
	HW    board.Config
	Procs int  // GOMAXPROCS while the case runs; 0 leaves it
	Fleet int  // arrays in the grape6d fleet; 0 is one
	Noise bool // a third tenant evaluates on the fleet before every step
	Steps []Step
}

// A Step evaluates one batch at T on every path, then corrects the first
// Patch particles of the batch with hermite.Advance (those whose time is
// before T) and writes them back: by UpdateJ, or, when Reload is set, by
// loading the whole set again.
type Step struct {
	T      float64
	Lo     int // the batch is slots Lo, Lo+1, … modulo N
	Block  int // batch size, at most N
	Patch  int
	Reload bool
}

func (c Case) String() string {
	hw := c.HW
	return fmt.Sprintf("N=%d seed=%d ids=%d ε=%g chips=%d×%d×%d cap=%d procs=%d fleet=%d noise=%t, %d steps",
		c.N, c.Seed, c.IDs, c.Eps, hw.ChipsPerModule, hw.ModulesPerBoard, hw.Boards,
		hw.Chip.MemCapacity, c.Procs, c.Fleet, c.Noise, len(c.Steps))
}

// HW is board.Default with the given packaging: chips per module,
// modules per board, boards.
func HW(chips, modules, boards int) board.Config {
	c := board.Default
	c.ChipsPerModule, c.ModulesPerBoard, c.Boards = chips, modules, boards
	return c
}

// SmallHW is the 8-chip attachment of the fixed cases, HW(2, 2, 2).
func SmallHW() board.Config { return HW(2, 2, 2) }

// BlockSteps is an individual-timestep schedule: step k, at t =
// (k+1)/512, forces the block of size slots from k·size and corrects it.
func BlockSteps(steps, size int) []Step {
	out := make([]Step, steps)
	for k := range out {
		out[k] = Step{T: float64(k+1) / 512, Lo: k * size, Block: size, Patch: size}
	}
	return out
}

// Plummer returns the seeded N-particle Plummer model in hardware format
// at t = 0 (ids 0 … n−1) and its time-0 i-particles.
func Plummer(t testing.TB, hw board.Config, n int, seed uint64) ([]chip.JParticle, []chip.IParticle) {
	t.Helper()
	sys := model.Plummer(n, xrand.New(seed))
	js := make([]chip.JParticle, n)
	is := make([]chip.IParticle, n)
	for i := range js {
		js[i] = makeJ(t, hw, sys, i)
		is[i] = iParticle(hw, &js[i], 0)
	}
	return js, is
}

// LoadPlummer loads Plummer(n, seed) onto a and returns it.
func LoadPlummer(t testing.TB, a gbackend.Array, n int, seed uint64) ([]chip.JParticle, []chip.IParticle) {
	t.Helper()
	js, is := Plummer(t, a.Config(), n, seed)
	if err := a.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	return js, is
}

// makeJ is particle i of sys in hardware format, as gbackend converts it.
func makeJ(t testing.TB, hw board.Config, sys *nbody.System, i int) chip.JParticle {
	p, err := chip.MakeJParticle(hw.Chip.Format, sys.ID[i], sys.Time[i], sys.Mass[i],
		sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i])
	if err != nil {
		t.Fatalf("particle %d: %v", i, err)
	}
	return p
}

// iParticle is j predicted to t through the chip's datapath, with the
// fixed block exponents of the board-level paths.
func iParticle(hw board.Config, j *chip.JParticle, t float64) chip.IParticle {
	x, v := chip.PredictParticle(hw.Chip.Format, j, t)
	return chip.IParticle{X: x, V: v, SelfID: j.ID, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
}

// Reference is the oracle: one chip whose memory holds the whole set,
// loaded afresh (so predicted afresh) on every evaluation and streamed
// over every slot by one ForceBatchRangeInto call. It implements
// gbackend.Array, so a Backend over it is the reference of the backends.
type Reference struct {
	hw  board.Config
	js  []chip.JParticle
	pos map[int]int
}

// NewReference returns an empty reference of hw's chip.
func NewReference(hw board.Config) *Reference { return &Reference{hw: hw} }

// LoadJ implements gbackend.Array.
func (r *Reference) LoadJ(ps []chip.JParticle) error {
	r.js = append(r.js[:0], ps...)
	r.pos = make(map[int]int, len(ps))
	for k := range ps {
		r.pos[ps[k].ID] = k
	}
	return nil
}

// UpdateJ implements gbackend.Array.
func (r *Reference) UpdateJ(p chip.JParticle) error {
	k, ok := r.pos[p.ID]
	if !ok {
		return fmt.Errorf("forcecheck: particle %d not loaded", p.ID)
	}
	r.js[k] = p
	return nil
}

// ForcesInto implements gbackend.Array; the cycles are the one chip's.
func (r *Reference) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	cfg := r.hw.Chip
	cfg.MemCapacity = max(cfg.MemCapacity, len(r.js))
	ch := chip.New(cfg)
	if err := ch.LoadJ(r.js); err != nil {
		panic(err)
	}
	return ch.ForceBatchRangeInto(dst, t, is, eps, 0, len(r.js))
}

func (r *Reference) BeginPredict(float64) {}
func (r *Reference) NJ() int              { return len(r.js) }
func (r *Reference) Config() board.Config { return r.hw }
func (r *Reference) Close()               {}

// Coverage counts the steps of one or more runs by what they exercised.
type Coverage map[string]int

// items is every entry Coverage must reach over the default seeds.
var items = []string{
	"fresh predictor", "stale predictor",
	"batch of 1", "batch of 2", "batch of 3",
	"quads + 0", "quads + 1", "quads + 2", "quads + 3",
	"one page", "several pages", "ragged chunks",
	"chip split over spans", "stale chip split over spans",
	"lease swap", "lease without swap",
	"UpdateJ", "LoadJ reload",
}

// Add merges o into c.
func (c Coverage) Add(o Coverage) {
	for k, v := range o {
		c[k] += v
	}
}

// Missing lists the items c never reached.
func (c Coverage) Missing() []string {
	var out []string
	for _, it := range items {
		if c[it] == 0 {
			out = append(out, it)
		}
	}
	return out
}

// Draw makes the Case of seed: every input of the contract drawn from
// its range, sized so that a case runs in tens of milliseconds.
func Draw(seed uint64) Case {
	r := xrand.New(seed)
	hw := HW(1+r.Intn(3), 1+r.Intn(2), 1+r.Intn(3))
	nc := hw.TotalChips()
	var n int
	switch r.Intn(4) {
	case 0:
		n = 1 + r.Intn(24)
	case 3:
		n = 400 + r.Intn(1200)
	default:
		n = 24 + r.Intn(400)
	}
	if r.Intn(2) == 0 { // several pages, as far as n allows
		hw.Chip.MemCapacity = max(1, (n+nc*(2+r.Intn(4))-1)/(nc*(2+r.Intn(4))))
	}
	c := Case{
		N:     n,
		Seed:  seed,
		IDs:   IDs(r.Intn(3)),
		Eps:   []float64{0, 1.0 / 256, 1.0 / 64, 1.0 / 16, 0.5}[r.Intn(5)],
		HW:    hw,
		Procs: 1 + r.Intn(8),
		Fleet: 1 + r.Intn(3),
		Noise: r.Intn(2) == 0,
	}
	tick := 0
	for k, steps := 0, 2+r.Intn(5); k < steps; k++ {
		if k == 0 || r.Intn(2) > 0 { // else the time repeats
			tick += 1 + r.Intn(3)
		}
		s := Step{T: float64(tick) / 512, Lo: r.Intn(n)}
		switch r.Intn(3) {
		case 0:
			s.Block = 1 + r.Intn(3)
		case 1:
			s.Block = 4 + r.Intn(13)
		default:
			s.Block = 1 + r.Intn(97)
		}
		s.Block = min(s.Block, n)
		if r.Intn(2) > 0 {
			s.Patch = 1 + r.Intn(min(s.Block, 8))
		}
		s.Reload = r.Intn(4) == 0
		c.Steps = append(c.Steps, s)
	}
	return c
}

// run is the state of one Case on every path.
type run struct {
	t   testing.TB
	c   Case
	sys *nbody.System
	js  []chip.JParticle

	ref   *Reference
	arr   *board.Array // the board path
	sched *grape6d.Scheduler
	lease *grape6d.Session // the board-level lease path
	noise *grape6d.Session
	nis   []chip.IParticle

	refB, owned, borrowed *gbackend.Backend

	cov Coverage
}

// Run drives c through every path and fails t at the first bit that
// differs from the reference. It returns what the case exercised.
func Run(t testing.TB, c Case) Coverage {
	t.Helper()
	if c.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.Procs))
	}
	r := &run{t: t, c: c, cov: Coverage{}}
	r.sys = model.Plummer(c.N, xrand.New(c.Seed))
	for i := range r.sys.ID {
		switch c.IDs {
		case Sparse:
			r.sys.ID[i] = 1000000 + 37*i
		case Negative:
			r.sys.ID[i] = 3*i - c.N
		}
	}
	r.js = make([]chip.JParticle, c.N)
	for i := range r.js {
		r.js[i] = makeJ(t, c.HW, r.sys, i)
	}

	r.ref = NewReference(c.HW)
	r.arr = board.New(c.HW)
	defer r.arr.Close()
	r.sched = grape6d.NewScheduler(grape6d.Config{Fleet: c.Fleet, HW: c.HW})
	defer r.sched.Close()
	r.lease = r.attach("partials")
	if c.Noise {
		r.noise = r.attach("noise")
		njs, nis := Plummer(t, c.HW, 24, c.Seed+1)
		if err := r.noise.LoadJ(njs); err != nil {
			t.Fatal(err)
		}
		r.nis = nis[:8]
	}
	r.refB = gbackend.NewBorrowed(NewReference(c.HW))
	r.owned = gbackend.New(board.New(c.HW))
	defer r.owned.Close()
	// The borrowing backend leases from a fleet of its own: beside the
	// board-level lease it would make every evaluation of both a swap.
	bsched := grape6d.NewScheduler(grape6d.Config{HW: c.HW})
	defer bsched.Close()
	backend, err := bsched.Attach("backend", grape6d.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	r.borrowed = gbackend.NewBorrowed(backend)
	defer r.borrowed.Close()

	r.load()
	wrote := true
	for k, s := range c.Steps {
		if s.Block < 1 || s.Block > c.N {
			t.Fatalf("%v: step %d: batch of %d from %d particles", c, k, s.Block, c.N)
		}
		r.cover(k, wrote)
		slots, fw := r.step(k, s)
		wrote = r.correct(s, slots, fw)
	}
	return r.cov
}

func (r *run) attach(name string) *grape6d.Session {
	s, err := r.sched.Attach(name, grape6d.Quota{})
	if err != nil {
		r.t.Fatal(err)
	}
	return s
}

// load installs the set on every path.
func (r *run) load() {
	for _, a := range []gbackend.Array{r.ref, r.arr, r.lease} {
		if err := a.LoadJ(r.js); err != nil {
			r.t.Fatalf("%v: LoadJ on %T: %v", r.c, a, err)
		}
	}
	for _, b := range []*gbackend.Backend{r.refB, r.owned, r.borrowed} {
		b.Load(r.sys)
	}
}

// cover counts what step k exercises on the board path before it runs;
// wrote says whether the step before it wrote the set.
func (r *run) cover(k int, wrote bool) {
	c, s, cov := r.c, r.c.Steps[k], r.cov
	switch {
	case s.Block < 4:
		cov[fmt.Sprintf("batch of %d", s.Block)]++
	default:
		cov[fmt.Sprintf("quads + %d", s.Block%4)]++
	}
	// The page and span cuts of board.Array: pages of at most
	// MemCapacity per chip, balanced chunks of a page over the chips, and
	// spans of max(64, page/(4·GOMAXPROCS)) slots (board.stripeLen).
	nc := c.HW.TotalChips()
	np := max(1, (c.N+nc*c.HW.Chip.MemCapacity-1)/(nc*c.HW.Chip.MemCapacity))
	stale := k == 0 || wrote || np > 1 || c.Steps[k-1].T != s.T
	cov[pick(stale, "stale predictor", "fresh predictor")]++
	cov[pick(np == 1, "one page", "several pages")]++
	for p := 0; p < np; p++ {
		m := (p+1)*c.N/np - p*c.N/np
		if m%nc != 0 {
			cov["ragged chunks"]++
		}
		if (m+nc-1)/nc > max(64, m/(4*runtime.GOMAXPROCS(0))) {
			cov["chip split over spans"]++
			if stale {
				cov["stale chip split over spans"]++
			}
		}
	}
}

// step evaluates step k's batch on every path and returns the batch's
// slots and the reference backend's forces on them.
func (r *run) step(k int, s Step) ([]int, []direct.Force) {
	t, c := r.t, r.c
	slots := make([]int, s.Block)
	is := make([]chip.IParticle, s.Block)
	for q := range slots {
		slots[q] = (s.Lo + q) % c.N
		is[q] = iParticle(c.HW, &r.js[slots[q]], s.T)
	}
	where := func(path string) string {
		return fmt.Sprintf("%v: step %d (t=%g, %d i-particles from slot %d), %s", c, k, s.T, s.Block, s.Lo, path)
	}

	want := make([]chip.Partial, s.Block)
	r.ref.ForcesInto(want, s.T, is, c.Eps)
	// One slab for both paths, longer than the batch: each evaluation
	// writes over the bits of the one before.
	got := make([]chip.Partial, s.Block+1)
	cycles := r.arr.ForcesInto(got, s.T, is, c.Eps)
	samePartials(t, where("board.Array.ForcesInto"), got, want)

	if r.noise != nil {
		var nd [8]chip.Partial
		r.noise.ForcesInto(nd[:], 0.25, r.nis, 0.5)
	}
	swaps := r.swaps()
	if leased := r.lease.ForcesInto(got, s.T, is, c.Eps); leased != cycles {
		t.Fatalf("%s: charged %d cycles, the dedicated array %d", where("grape6d lease"), leased, cycles)
	}
	samePartials(t, where("grape6d lease"), got, want)
	r.cov[pick(r.swaps() > swaps, "lease swap", "lease without swap")]++

	fw := r.refB.ForcesInto(make([]direct.Force, s.Block), s.T, slots, nil, nil, c.Eps)
	for _, b := range []*gbackend.Backend{r.owned, r.borrowed} {
		path := pick(b.Owned(), "gbackend owning an array", "gbackend borrowing a lease")
		fs := b.ForcesInto(make([]direct.Force, s.Block), s.T, slots, nil, nil, c.Eps)
		for q := range fw {
			if fs[q] != fw[q] {
				t.Fatalf("%s: force %d (slot %d) is %+v, the reference %+v", where(path), q, slots[q], fs[q], fw[q])
			}
		}
		if b.Retries != r.refB.Retries {
			t.Fatalf("%s: %d overflow retries, the reference %d", where(path), b.Retries, r.refB.Retries)
		}
	}
	if r.owned.HWCycles != r.borrowed.HWCycles {
		t.Fatalf("%s: charged %d cycles in all, the dedicated array %d",
			where("gbackend borrowing a lease"), r.borrowed.HWCycles, r.owned.HWCycles)
	}
	return slots, fw
}

// correct applies step s's Hermite corrections, from the reference
// forces fw on slots, writes them to every path, and reports whether it
// wrote anything.
func (r *run) correct(s Step, slots []int, fw []direct.Force) bool {
	c := r.c
	var patched []int
	for q := range min(s.Patch, len(slots)) {
		if i := slots[q]; r.sys.Time[i] < s.T {
			hermite.Advance(r.sys, i, fw[q], s.T, hermite.DefaultParams(c.Eps))
			r.js[i] = makeJ(r.t, c.HW, r.sys, i)
			patched = append(patched, i)
		}
	}
	if s.Reload {
		r.cov["LoadJ reload"]++
		r.load()
		return true
	}
	if len(patched) == 0 {
		return false
	}
	r.cov["UpdateJ"]++
	for _, a := range []gbackend.Array{r.ref, r.arr, r.lease} {
		for _, i := range patched {
			if err := a.UpdateJ(r.js[i]); err != nil {
				r.t.Fatalf("%v: UpdateJ of slot %d on %T: %v", c, i, a, err)
			}
		}
	}
	for _, b := range []*gbackend.Backend{r.refB, r.owned, r.borrowed} {
		b.Update(r.sys, patched)
	}
	return true
}

// swaps is the fleet's j-image swap-ins so far.
func (r *run) swaps() int64 {
	var n int64
	for _, a := range r.sched.Stats().Arrays {
		n += a.Swaps
	}
	return n
}

// samePartials fails t at the first of want that got does not equal.
func samePartials(t testing.TB, where string, got, want []chip.Partial) {
	t.Helper()
	for q := range want {
		if got[q] != want[q] {
			t.Fatalf("%s: partial %d is %+v, the reference %+v", where, q, got[q], want[q])
		}
	}
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
