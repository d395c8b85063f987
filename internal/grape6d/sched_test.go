package grape6d

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// smallHW is the 8-chip functional-test fleet array,
// forcecheck.SmallHW (which imports this package, so the in-package tests
// cannot use it).
func smallHW() board.Config {
	c := board.Default
	c.ChipsPerModule = 2
	c.ModulesPerBoard = 2
	c.Boards = 2
	return c
}

// plummerSet is forcecheck.Plummer: the seeded Plummer set in hardware
// format at t = 0 and its time-0 i-particles.
func plummerSet(t testing.TB, hw board.Config, n int, seed uint64) ([]chip.JParticle, []chip.IParticle) {
	t.Helper()
	f := hw.Chip.Format
	sys := model.Plummer(n, xrand.New(seed))
	js := make([]chip.JParticle, n)
	is := make([]chip.IParticle, n)
	for i := 0; i < n; i++ {
		p, err := chip.MakeJParticle(f, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
		if err != nil {
			t.Fatal(err)
		}
		js[i] = p
		x, v := chip.PredictParticle(f, &p, 0)
		is[i] = chip.IParticle{X: x, V: v, SelfID: i, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
	}
	return js, is
}

// TestCoalescingBitIdentical keeps its name from the deleted request
// coalescer (the pipeline's test floor holds it). Four goroutines call
// ForcesInto on one session at one (t, eps): the session serves them one
// after another, and each gets exactly the bits and the cycle count of
// its own evaluation on a dedicated array — one hardware dispatch per
// request, nothing packed.
func TestCoalescingBitIdentical(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 512, 42)
	eps := 1.0 / 64
	tm := 0.015625
	splits := []struct{ lo, n int }{{0, 5}, {5, 7}, {12, 11}, {23, 13}}

	arr := board.New(hw)
	defer arr.Close()
	if err := arr.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	type ref struct {
		dst    []chip.Partial
		cycles int64
	}
	refs := make([]ref, len(splits))
	for k, sp := range splits {
		refs[k].dst = make([]chip.Partial, sp.n)
		refs[k].cycles = arr.ForcesInto(refs[k].dst, tm, is[sp.lo:sp.lo+sp.n], eps)
	}

	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	s, err := d.Attach("burst", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	if err := s.LoadJ(js); err != nil {
		t.Fatal(err)
	}

	dsts := make([][]chip.Partial, len(splits))
	cycles := make([]int64, len(splits))
	var wg sync.WaitGroup
	for k, sp := range splits {
		dsts[k] = make([]chip.Partial, sp.n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cycles[k] = s.ForcesInto(dsts[k], tm, is[sp.lo:sp.lo+sp.n], eps)
		}()
	}
	wg.Wait()
	for k := range splits {
		if cycles[k] != refs[k].cycles {
			t.Errorf("request %d charged %d cycles, dedicated array reports %d", k, cycles[k], refs[k].cycles)
		}
		for q := range dsts[k] {
			if dsts[k][q] != refs[k].dst[q] {
				t.Fatalf("request %d partial %d differs from dedicated evaluation", k, q)
			}
		}
	}

	st := d.Stats()
	if ss := st.Sessions[0]; ss.Requests != int64(len(splits)) {
		t.Errorf("session shows %d requests, want %d", ss.Requests, len(splits))
	}
	if st.Fill.Dispatches != int64(len(splits)) {
		t.Errorf("fill histogram recorded %d dispatches, want one per request (%d)", st.Fill.Dispatches, len(splits))
	}
	// The four fills sum in completion order, so the mean is exact only
	// to rounding.
	if want := 36.0 / 48.0 / 4; math.Abs(st.Fill.MeanFill-want) > 1e-12 {
		t.Errorf("mean fill %.4f, want %.4f (36 i-particles over four pipeline loads)", st.Fill.MeanFill, want)
	}
}

// TestCoalescingFullBatchFlushesEarly keeps its name from the deleted
// coalescing window (the pipeline's test floor holds it); what survives
// of it is the top edge of the fill histogram: a request of exactly one
// pipeline load is one full load in the top bucket, and one particle
// more takes a second load.
func TestCoalescingFullBatchFlushesEarly(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 512, 42)
	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	s, err := d.Attach("full", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	if err := s.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	ib := d.HW().Chip.IBatch()
	dst := make([]chip.Partial, ib+1)
	s.ForcesInto(dst, 0.015625, is[:ib], 1.0/64)
	st := d.Stats()
	if st.Fill.MeanFill != 1 || st.Fill.Buckets[7] != 1 || st.Arrays[0].Loads != 1 {
		t.Errorf("a full pipeline load recorded fill %+v over %d loads, want 1.0 in the top bucket over one load", st.Fill, st.Arrays[0].Loads)
	}
	s.ForcesInto(dst, 0.015625, is[:ib+1], 1.0/64)
	st = d.Stats()
	if want := int64((ib + 1) * 8 / (2 * ib)); st.Arrays[0].Loads != 3 || st.Fill.Buckets[want] != 1 {
		t.Errorf("%d i-particles recorded fill %+v over %d loads in all, want two more loads and bucket %d", ib+1, st.Fill, st.Arrays[0].Loads, want)
	}
}

// TestCoalescingMaxWaitFlush keeps its name from the deleted coalescing
// window (the pipeline's test floor holds it); what survives of it is
// that nothing holds an under-filled request back: a lone 4-particle
// request dispatches at once and lands in the lowest fill bucket.
func TestCoalescingMaxWaitFlush(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 512, 42)
	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	s, err := d.Attach("lone", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	if err := s.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	dst := make([]chip.Partial, 4)
	done := make(chan struct{})
	go func() {
		s.ForcesInto(dst, 0.015625, is[:4], 1.0/64)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a lone under-filled request was held back")
	}
	if st := d.Stats(); st.Fill.Dispatches != 1 || st.Fill.Buckets[0] != 1 {
		t.Errorf("fill histogram %+v, want one dispatch in the lowest bucket (4/48 fill)", st.Fill)
	}
}

// awaitCalls returns once n ForcesInto calls of s are inside the
// scheduler.
func awaitCalls(d *Scheduler, s *Session, n int) {
	for ok := false; !ok; runtime.Gosched() {
		d.mu.Lock()
		ok = s.calls == n
		d.mu.Unlock()
	}
}

// holdSlot marks array k busy once nothing else operates it — the state
// an UpdateJ write-through puts it in — so force calls park behind it.
// The returned func releases it.
func holdSlot(d *Scheduler, k int) (release func()) {
	d.mu.Lock()
	for d.slots[k].busy {
		d.cond.Wait()
	}
	d.slots[k].busy = true
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		d.slots[k].busy = false
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// TestQuotaThrottle keeps its name from the deleted chip-second quotas;
// what survives of it is that no tenant starves another. Calls are served first come, first served, so
// while one session hammers ForcesInto from four goroutines, another
// session's request waits only for the calls admitted before it. The test
// parks the four greedy calls, then the polite one, behind the array it
// holds busy; each greedy goroutine's later calls are admitted after the
// polite request and must find it already served.
func TestQuotaThrottle(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 256, 3)
	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	greedy, err := d.Attach("greedy", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer greedy.Detach()
	polite, err := d.Attach("polite", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer polite.Detach()
	if err := greedy.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	if err := polite.LoadJ(js); err != nil {
		t.Fatal(err)
	}

	const hammers, rounds = 4, 8
	release := holdSlot(d, 0)
	var overtaken atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]chip.Partial, 16)
			for k := 0; k < rounds; k++ {
				greedy.ForcesInto(dst, 0.015625, is[:16], 1.0/64)
				d.mu.Lock()
				served := polite.reqs
				d.mu.Unlock()
				if k > 0 && served == 0 {
					overtaken.Add(1)
				}
			}
		}()
	}
	awaitCalls(d, greedy, hammers)
	pdone := make(chan int64, 1)
	go func() {
		pd := make([]chip.Partial, 16)
		pdone <- polite.ForcesInto(pd, 0.0625, is[:16], 1.0/64)
	}()
	awaitCalls(d, polite, 1)
	release()

	select {
	case cycles := <-pdone:
		if cycles <= 0 {
			t.Error("polite request completed with no cycles charged")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("polite session starved behind a session hammering from four goroutines")
	}
	wg.Wait()
	if n := overtaken.Load(); n > 0 {
		t.Errorf("%d greedy calls admitted after the polite request were served before it", n)
	}
	for _, ss := range d.Stats().Sessions {
		if want := map[string]int64{"greedy": hammers * rounds, "polite": 1}[ss.Name]; ss.Requests != want || ss.QueueDepth != 0 || ss.Throttled != 0 {
			t.Errorf("session %s: %d requests, %d waiting, %d throttled; want %d, 0, 0", ss.Name, ss.Requests, ss.QueueDepth, ss.Throttled, want)
		}
	}
}

// runHermite integrates a seeded Plummer system to the given time on
// the provided backend and returns the final system plus hardware
// cycles consumed.
func runHermite(t testing.TB, be *gbackend.Backend, n int, seed uint64, until float64) (*nbody.System, int64) {
	t.Helper()
	sys := model.Plummer(n, xrand.New(seed))
	it, err := hermite.New(sys, be, hermite.DefaultParams(1.0/64))
	if err != nil {
		t.Fatal(err)
	}
	it.Run(until)
	return sys, be.HWCycles
}

func sameSystem(a, b *nbody.System) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Acc[i] != b.Acc[i] ||
			a.Jerk[i] != b.Jerk[i] || a.Snap[i] != b.Snap[i] || a.Crack[i] != b.Crack[i] ||
			a.Pot[i] != b.Pot[i] || a.Time[i] != b.Time[i] || a.Step[i] != b.Step[i] {
			return false
		}
	}
	return true
}

// TestSessionEndToEndVsSolo is the tentpole invariant end to end: two
// Hermite integrations sharing a single-array fleet concurrently — with
// all the swaps and deferred updates that implies —
// must each produce bit-identical trajectories AND identical hardware
// cycle accounting to the same runs executed alone on dedicated arrays.
func TestSessionEndToEndVsSolo(t *testing.T) {
	hw := smallHW()
	const until = 1.0 / 16

	soloA := gbackend.New(board.New(hw))
	sysA, cycA := runHermite(t, soloA, 192, 13, until)
	soloA.Close()
	soloB := gbackend.New(board.New(hw))
	sysB, cycB := runHermite(t, soloB, 96, 21, until)
	soloB.Close()

	d := NewScheduler(Config{Fleet: 1, HW: hw})
	defer d.Close()
	type result struct {
		sys    *nbody.System
		cycles int64
	}
	var wg sync.WaitGroup
	results := make([]result, 2)
	runs := []struct {
		name string
		n    int
		seed uint64
	}{{"tenantA", 192, 13}, {"tenantB", 96, 21}}
	for k, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := d.Attach(r.name, Quota{})
			if err != nil {
				t.Error(err)
				return
			}
			be := gbackend.NewBorrowed(s)
			defer be.Close()
			sys, cyc := runHermite(t, be, r.n, r.seed, until)
			results[k] = result{sys, cyc}
		}()
	}
	wg.Wait()

	if !sameSystem(sysA, results[0].sys) {
		t.Error("tenant A trajectory differs from its dedicated-array run: multi-tenancy changed result bits")
	}
	if !sameSystem(sysB, results[1].sys) {
		t.Error("tenant B trajectory differs from its dedicated-array run: multi-tenancy changed result bits")
	}
	if results[0].cycles != cycA {
		t.Errorf("tenant A charged %d cycles, dedicated run consumed %d", results[0].cycles, cycA)
	}
	if results[1].cycles != cycB {
		t.Errorf("tenant B charged %d cycles, dedicated run consumed %d", results[1].cycles, cycB)
	}
}

// TestOverlapThroughput checks that two tenants on a two-array fleet
// actually overlap: while both run, the two arrays must be busy at the
// same time. The evidence is the scheduler's own accounting — each slot's
// Stats busy time is the wall clock force calls spent operating the array, so
// if the scheduler serialized the tenants the two busy times could not sum
// to more than the window, and full overlap sums to twice it. The
// wall-clock ratio against one session doing the same work is logged but
// not asserted: it measures how many cores the host has free (1.03x–1.6x
// on the 2-core CI host depending on what else `go test ./...` is
// running), not whether the scheduler overlaps.
func TestOverlapThroughput(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("overlap needs ≥ 2 CPUs: emulated boards burn host CPU, so one core serializes everything")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	hw := smallHW()
	js, is := plummerSet(t, hw, 512, 42)
	const evals = 24
	work := func(s *Session, dst []chip.Partial, rounds int) {
		for k := 0; k < rounds; k++ {
			s.ForcesInto(dst, 0.015625, is[:48], 1.0/64)
		}
	}

	d := NewScheduler(Config{Fleet: 2, HW: hw})
	defer d.Close()
	one, err := d.Attach("serial", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Detach()
	if err := one.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	dst := make([]chip.Partial, 48)
	work(one, dst, 2) // warm the slot
	start := time.Now()
	work(one, dst, 2*evals)
	serial := time.Since(start)

	a, err := d.Attach("parA", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Detach()
	b, err := d.Attach("parB", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Detach()
	if err := a.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	da := make([]chip.Partial, 48)
	db := make([]chip.Partial, 48)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); work(a, da, 1) }()
	go func() { defer wg.Done(); work(b, db, 1) }()
	wg.Wait() // warm both slots
	busyBefore := d.Stats().Arrays
	start = time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); work(a, da, evals) }()
	go func() { defer wg.Done(); work(b, db, evals) }()
	wg.Wait()
	overlapped := time.Since(start)
	busyAfter := d.Stats().Arrays

	var busy time.Duration
	for k := range busyAfter {
		delta := busyAfter[k].Busy - busyBefore[k].Busy
		if delta <= 0 {
			t.Errorf("array %d served nothing while two tenants ran", k)
		}
		busy += delta
	}
	ratio := float64(busy) / float64(overlapped)
	t.Logf("serialized %v, overlapped %v: %.2fx wall clock; arrays busy %v in that window: %.2fx",
		serial, overlapped, float64(serial)/float64(overlapped), busy, ratio)
	if ratio < 1.2 {
		t.Errorf("two arrays were busy %.2fx the window two tenants ran in, want ≥ 1.2x (1x is no overlap at all)", ratio)
	}
}

// TestMultiSlotResidencyStaysFresh pins the generation tracking behind
// multi-slot residency: concurrent dispatches can leave one session's
// j-image resident on several slots at once, and a later LoadJ or
// UpdateJ write-through must stale-out every copy it did not refresh —
// a single per-session dirty flag cannot say which slot went stale, so
// the second slot would silently evaluate against the old image.
func TestMultiSlotResidencyStaysFresh(t *testing.T) {
	hw := smallHW()
	js1, is := plummerSet(t, hw, 128, 1)
	js2, _ := plummerSet(t, hw, 128, 2)
	eps := 1.0 / 64
	const tm = 0.015625

	d := NewScheduler(Config{Fleet: 2, HW: hw})
	defer d.Close()
	s, err := d.Attach("roamer", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()

	// evalOn pins the next dispatch to slot k by marking the other slot
	// busy — exactly the state a client-side fast path puts it in — and
	// releases the pin after the evaluation completes.
	evalOn := func(k int) []chip.Partial {
		d.mu.Lock()
		for d.slots[0].busy || d.slots[1].busy || s.serving {
			d.cond.Wait()
		}
		other := d.slots[1-k]
		other.busy = true
		d.mu.Unlock()
		dst := make([]chip.Partial, 8)
		s.ForcesInto(dst, tm, is[:8], eps)
		d.mu.Lock()
		other.busy = false
		landed := d.slots[k].resident == s
		d.cond.Broadcast()
		d.mu.Unlock()
		if !landed {
			t.Fatalf("pinned dispatch did not land on slot %d", k)
		}
		return dst
	}

	if err := s.LoadJ(js1); err != nil {
		t.Fatal(err)
	}
	// Establish residency on both slots under the first image.
	evalOn(0)
	evalOn(1)

	// Replace the whole image: every resident copy is now stale, and a
	// dispatch on either slot must swap the new image in.
	if err := s.LoadJ(js2); err != nil {
		t.Fatal(err)
	}
	arr := board.New(hw)
	defer arr.Close()
	if err := arr.LoadJ(js2); err != nil {
		t.Fatal(err)
	}
	want := make([]chip.Partial, 8)
	arr.ForcesInto(want, tm, is[:8], eps)
	for k := 0; k < 2; k++ {
		got := evalOn(k)
		for q := range want {
			if got[q] != want[q] {
				t.Fatalf("slot %d evaluated against a stale j-image after LoadJ (partial %d differs)", k, q)
			}
		}
	}

	// Write-through: the patch lands on one fresh idle slot and stamps it
	// with the new generation; the other slot's copy is now one generation
	// behind and must reload wholesale at its next dispatch.
	if err := s.UpdateJ(js1[0]); err != nil {
		t.Fatal(err)
	}
	if err := arr.UpdateJ(js1[0]); err != nil {
		t.Fatal(err)
	}
	arr.ForcesInto(want, tm, is[:8], eps)
	for k := 0; k < 2; k++ {
		got := evalOn(k)
		for q := range want {
			if got[q] != want[q] {
				t.Fatalf("slot %d evaluated against a stale j-image after an UpdateJ write-through elsewhere (partial %d differs)", k, q)
			}
		}
	}
}

// TestFailedLoadJLeavesSessionUntouched pins LoadJ's validate-before-
// mutate order: a j-set with a duplicate id is refused with the image, the
// id index and the generation exactly as they were, so forces and cycles
// are the same before and after — on the copy a slot still holds and on a
// fresh swap-in from the host image — and a later UpdateJ patches the
// particle the old index names.
func TestFailedLoadJLeavesSessionUntouched(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 128, 1)
	bad, _ := plummerSet(t, hw, 128, 2)
	for i := range bad {
		bad[i].ID = len(bad) - 1 - i // another id → slot map than js
	}
	bad[len(bad)-1].ID = bad[len(bad)/2].ID
	const tm, eps = 0.015625, 1.0 / 64

	d := NewScheduler(Config{Fleet: 1, HW: hw})
	defer d.Close()
	s, err := d.Attach("victim", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	rival, err := d.Attach("rival", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer rival.Detach()
	if err := s.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	if err := rival.LoadJ(js[:32]); err != nil {
		t.Fatal(err)
	}
	eval := func(s *Session) ([8]chip.Partial, int64) {
		var dst [8]chip.Partial
		return dst, s.ForcesInto(dst[:], tm, is[:8], eps)
	}
	want, wantCycles := eval(s)
	genOf := func() uint64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return s.gen
	}
	gen := genOf()

	if err := s.LoadJ(bad); err == nil {
		t.Fatal("LoadJ accepted a j-set with a duplicate id")
	}
	if g := genOf(); g != gen {
		t.Errorf("failed LoadJ moved the generation %d → %d", gen, g)
	}
	if got, cycles := eval(s); got != want || cycles != wantCycles {
		t.Error("forces or cycles on the resident copy changed after a failed LoadJ")
	}
	eval(rival) // evict: the next evaluation swaps the host image back in
	if got, cycles := eval(s); got != want || cycles != wantCycles {
		t.Error("forces or cycles after a swap-in changed: a failed LoadJ overwrote the host image")
	}

	// The index still maps js's ids: patching particle 3 must move exactly
	// what it moves on a dedicated array.
	p := js[3]
	p.Mass *= 2
	if err := s.UpdateJ(p); err != nil {
		t.Fatal(err)
	}
	arr := board.New(hw)
	defer arr.Close()
	if err := arr.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	if err := arr.UpdateJ(p); err != nil {
		t.Fatal(err)
	}
	var ref [8]chip.Partial
	arr.ForcesInto(ref[:], tm, is[:8], eps)
	eval(rival)
	if got, _ := eval(s); got != ref {
		t.Error("UpdateJ after a failed LoadJ patched the wrong slot of the host image")
	}
}

// TestCloseDrainsQueuedRequests pins Close's drain contract on a
// two-array fleet whose arrays the test holds busy — each standing in for
// an UpdateJ write-through, which holds an array the same way while it
// patches the silicon. Two requests of one session park behind them, and
// Close is called. Releasing the first array lets both requests complete
// with a dedicated array's bits, but Close must not return (and shut the
// fleet) until the second array's write-through finishes too. Detach
// after Close must return instead of waiting forever.
func TestCloseDrainsQueuedRequests(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 128, 7)
	eps := 1.0 / 64
	const tm = 0.015625
	d := NewScheduler(Config{Fleet: 2, HW: hw})

	late, err := d.Attach("late", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.LoadJ(js); err != nil {
		t.Fatal(err)
	}

	release := holdSlot(d, 0)
	writeThrough := holdSlot(d, 1)
	dsts := [2][]chip.Partial{make([]chip.Partial, 4), make([]chip.Partial, 4)}
	var wg sync.WaitGroup
	for k := range dsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			late.ForcesInto(dsts[k], tm, is[:4], eps)
		}()
	}
	awaitCalls(d, late, 2)

	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while both arrays were busy and two requests were parked")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	wg.Wait()
	select {
	case <-closed:
		t.Fatal("Close returned while a write-through was still operating an array")
	case <-time.After(20 * time.Millisecond):
	}
	writeThrough()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the arrays were released")
	}

	arr := board.New(hw)
	defer arr.Close()
	if err := arr.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	want := make([]chip.Partial, 4)
	arr.ForcesInto(want, tm, is[:4], eps)
	for q := range want {
		if dsts[0][q] != want[q] || dsts[1][q] != want[q] {
			t.Errorf("parked request drained with wrong bits (partial %d)", q)
		}
	}

	detached := make(chan struct{})
	go func() {
		late.Detach()
		close(detached)
	}()
	select {
	case <-detached:
	case <-time.After(10 * time.Second):
		t.Fatal("Detach after Close deadlocked")
	}
}

// TestSessionIDsNeverReused pins id allocation: detaching the
// highest-id session must not hand its id to the next Attach — a stale
// client holding the old id would conflate two different sessions.
func TestSessionIDsNeverReused(t *testing.T) {
	d := NewScheduler(Config{HW: smallHW()})
	defer d.Close()
	a, err := d.Attach("a", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Detach()
	b, err := d.Attach("b", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	bid := b.ID()
	b.Detach()
	c, err := d.Attach("c", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if c.ID() == bid {
		t.Fatalf("session id %d reused after its holder detached", bid)
	}
	if c.ID() <= a.ID() {
		t.Errorf("session ids not monotonic: a=%d, later c=%d", a.ID(), c.ID())
	}
}

// TestDetachLeavesFleetRunning pins session lifecycle: detaching one
// tenant must not disturb another's ability to keep dispatching.
func TestDetachLeavesFleetRunning(t *testing.T) {
	hw := smallHW()
	js, is := plummerSet(t, hw, 128, 9)
	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	a, err := d.Attach("early", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Attach("late", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Detach()
	if err := a.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	dst := make([]chip.Partial, 8)
	a.ForcesInto(dst, 0.25, is[:8], 0.5)
	a.Detach()
	a.Detach() // idempotent
	if err := a.LoadJ(js); err == nil {
		t.Error("LoadJ on a detached session succeeded")
	}
	var ref [8]chip.Partial
	b.ForcesInto(ref[:], 0.25, is[:8], 0.5)
	if st := d.Stats(); len(st.Sessions) != 1 || st.Sessions[0].Name != "late" {
		t.Errorf("sessions after detach: %+v, want only the surviving tenant", st.Sessions)
	}
}

// TestWriteThroughDispatchExclusion hammers the interleaving where one
// tenant's UpdateJ write-through (client goroutine operating the slot's
// array unlocked, sl.busy set) overlaps another tenant's force
// submissions on a Fleet=1 scheduler: a force call must treat the busy
// slot as unclaimable instead of stomping it with a concurrent
// LoadJ/ForcesInto. Regression for a race the detector caught in the
// end-to-end test; run under tier 2 this pins the exclusion.
func TestWriteThroughDispatchExclusion(t *testing.T) {
	hw := smallHW()
	d := NewScheduler(Config{Fleet: 1, HW: hw})
	defer d.Close()

	writer, err := d.Attach("writer", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	rival, err := d.Attach("rival", Quota{})
	if err != nil {
		t.Fatal(err)
	}

	wjs, wis := plummerSet(t, hw, 32, 3)
	rjs, ris := plummerSet(t, hw, 24, 4)
	if err := writer.LoadJ(wjs); err != nil {
		t.Fatal(err)
	}
	if err := rival.LoadJ(rjs); err != nil {
		t.Fatal(err)
	}

	var wdst, rdst [8]chip.Partial
	// Make writer resident with a first evaluation, then interleave:
	// writer alternates write-throughs with evaluations (each evaluation
	// re-establishes residency) while rival's evaluations evict it.
	writer.ForcesInto(wdst[:], 0, wis[:8], 1.0/64)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 200; k++ {
			rival.ForcesInto(rdst[:], 0, ris[:8], 1.0/64)
		}
	}()
	for k := 0; k < 200; k++ {
		p := wjs[k%len(wjs)]
		if err := writer.UpdateJ(p); err != nil {
			t.Fatal(err)
		}
		if k%8 == 0 {
			writer.ForcesInto(wdst[:], 0, wis[:8], 1.0/64)
		}
	}
	<-done

	// The rewrites were identity patches, so writer's forces must still
	// match a dedicated array evaluating the untouched j-set.
	arr := board.New(hw)
	defer arr.Close()
	if err := arr.LoadJ(wjs); err != nil {
		t.Fatal(err)
	}
	var want [8]chip.Partial
	arr.ForcesInto(want[:], 0, wis[:8], 1.0/64)
	writer.ForcesInto(wdst[:], 0, wis[:8], 1.0/64)
	for i := range want {
		if want[i] != wdst[i] {
			t.Fatalf("particle %d diverged under write-through/dispatch contention", i)
		}
	}
}
