package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/grape6d"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// kind names one traced call site. Nothing inside the program is
// instrumented: every span is recorded by a wrapper this package puts
// around a call into a layer.
type kind uint8

const (
	kSetup  kind = iota // root: set-up of one repetition
	kWindow             // root: the measured window
	kStep               // hermite.Integrator.Step
	kGLoad              // gbackend.Backend.*
	kGUpdate
	kGForces
	kGPredict
	kGYield
	kBLoad // board.Array.*
	kBUpdate
	kBForces
	kBPredict
	kSLoad // grape6d.Session.*
	kSUpdate
	kSForces
	kSPredict
	kSYield
	nKinds
)

var kindName = [nKinds]string{
	"bench.setup", "bench.window", "hermite.Step",
	"gbackend.Load", "gbackend.Update", "gbackend.ForcesInto", "gbackend.BeginPredict", "gbackend.Yield",
	"board.LoadJ", "board.UpdateJ", "board.ForcesInto", "board.BeginPredict",
	"grape6d.LoadJ", "grape6d.UpdateJ", "grape6d.ForcesInto", "grape6d.BeginPredict", "grape6d.Yield",
}

// layer is the module a span's time is charged to.
type layer uint8

const (
	lBench layer = iota
	lHermite
	lGbackend
	lBoard
	lGrape6d
	nLayers
)

func (k kind) layer() layer {
	switch {
	case k <= kWindow:
		return lBench
	case k == kStep:
		return lHermite
	case k <= kGYield:
		return lGbackend
	case k <= kBPredict:
		return lBoard
	default:
		return lGrape6d
	}
}

// span is one recorded call: what, when, caused by which span, during
// which block step. work carries the pair count of a force call.
type span struct {
	kind       kind
	parent     int32 // index into the recorder's spans, -1 for a root
	block      int32 // block step in progress, -1 outside Step
	start, end int64 // ns since the recorder's epoch
	work       int64
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one driver goroutine in memory. It is not
// safe for concurrent use: each tenant goroutine owns one.
type recorder struct {
	epoch   time.Time
	session int // tenant index; 0 for single-client workloads
	spans   []span
	cur     int32 // innermost open span, -1 when none
	block   int32
}

// newRecorder preallocates room for capSpans spans so that recording does
// not allocate inside a measured window of the expected size.
func newRecorder(epoch time.Time, session, capSpans int) *recorder {
	return &recorder{epoch: epoch, session: session, spans: make([]span, 0, capSpans), cur: -1, block: -1}
}

func (r *recorder) begin(k kind) int32 {
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: r.cur, block: r.block, start: int64(time.Since(r.epoch))})
	r.cur = idx
	return idx
}

func (r *recorder) end(idx int32) {
	s := &r.spans[idx]
	s.end = int64(time.Since(r.epoch))
	r.cur = s.parent
}

// tracedBackend wraps the GRAPE library layer. Embedding keeps every
// method the integrator type-asserts for (ForcesInto, BeginPredict, Yield)
// in the method set, so hermite takes the same paths as on the bare value.
type tracedBackend struct {
	*gbackend.Backend
	rec *recorder
}

var (
	_ hermite.ForcesIntoBackend   = tracedBackend{}
	_ hermite.PredictAheadBackend = tracedBackend{}
	_ hermite.YieldBackend        = tracedBackend{}
)

func (b tracedBackend) Load(sys *nbody.System) {
	s := b.rec.begin(kGLoad)
	b.Backend.Load(sys)
	b.rec.end(s)
}

func (b tracedBackend) Update(sys *nbody.System, idx []int) {
	s := b.rec.begin(kGUpdate)
	b.Backend.Update(sys, idx)
	b.rec.end(s)
}

func (b tracedBackend) ForcesInto(dst []direct.Force, t float64, ids []int, xi, vi []vec.V3, eps float64) []direct.Force {
	s := b.rec.begin(kGForces)
	out := b.Backend.ForcesInto(dst, t, ids, xi, vi, eps)
	b.rec.end(s)
	return out
}

func (b tracedBackend) BeginPredict(t float64) {
	s := b.rec.begin(kGPredict)
	b.Backend.BeginPredict(t)
	b.rec.end(s)
}

func (b tracedBackend) Yield() {
	s := b.rec.begin(kGYield)
	b.Backend.Yield()
	b.rec.end(s)
}

// tracedArray wraps a dedicated board.Array behind gbackend.Array.
type tracedArray struct {
	*board.Array
	rec *recorder
}

var _ gbackend.Array = tracedArray{}

func (a tracedArray) LoadJ(ps []chip.JParticle) error {
	s := a.rec.begin(kBLoad)
	err := a.Array.LoadJ(ps)
	a.rec.end(s)
	return err
}

func (a tracedArray) UpdateJ(p chip.JParticle) error {
	s := a.rec.begin(kBUpdate)
	err := a.Array.UpdateJ(p)
	a.rec.end(s)
	return err
}

func (a tracedArray) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	s := a.rec.begin(kBForces)
	a.rec.spans[s].work = int64(len(is)) * int64(a.Array.NJ())
	cy := a.Array.ForcesInto(dst, t, is, eps)
	a.rec.end(s)
	return cy
}

func (a tracedArray) BeginPredict(t float64) {
	s := a.rec.begin(kBPredict)
	a.Array.BeginPredict(t)
	a.rec.end(s)
}

// tracedSession wraps a scheduler lease. Yield stays in the method set, so
// gbackend's interface{ Yield() } assertion still reaches the session.
type tracedSession struct {
	*grape6d.Session
	rec *recorder
}

var (
	_ gbackend.Array       = tracedSession{}
	_ interface{ Yield() } = tracedSession{}
)

func (a tracedSession) LoadJ(ps []chip.JParticle) error {
	s := a.rec.begin(kSLoad)
	err := a.Session.LoadJ(ps)
	a.rec.end(s)
	return err
}

func (a tracedSession) UpdateJ(p chip.JParticle) error {
	s := a.rec.begin(kSUpdate)
	err := a.Session.UpdateJ(p)
	a.rec.end(s)
	return err
}

func (a tracedSession) ForcesInto(dst []chip.Partial, t float64, is []chip.IParticle, eps float64) int64 {
	s := a.rec.begin(kSForces)
	a.rec.spans[s].work = int64(len(is)) * int64(a.Session.NJ())
	cy := a.Session.ForcesInto(dst, t, is, eps)
	a.rec.end(s)
	return cy
}

func (a tracedSession) BeginPredict(t float64) {
	s := a.rec.begin(kSPredict)
	a.Session.BeginPredict(t)
	a.rec.end(s)
}

func (a tracedSession) Yield() {
	s := a.rec.begin(kSYield)
	a.Session.Yield()
	a.rec.end(s)
}

// profile is what the spans below one root say about the layers.
type profile struct {
	rootNs int64           // duration of the root span
	self   [nLayers]int64  // self time per layer: duration minus children
	total  [nKinds]int64   // summed duration per call site
	calls  [nKinds]int64   // spans per call site
	work   [nKinds]int64   // summed work (pairs) per call site
	durs   [nKinds][]int64 // every duration, for percentiles (force requests only)
}

// profileOf aggregates the spans of one recorder that descend from the
// first root of the given kind: all of them into whole, and those recorded
// during block step b (the Step span and everything below it) into
// steps[b], whose root is the Step span. A span's self time is its duration
// minus the part its children cover; children never overlap one another
// because one goroutine records them, so the self times tile the root
// exactly.
func profileOf(r *recorder, root kind) (whole profile, steps []profile) {
	rootIdx := int32(-1)
	for i := range r.spans {
		if r.spans[i].kind == root && r.spans[i].parent == -1 {
			rootIdx = int32(i)
			break
		}
	}
	if rootIdx < 0 {
		return whole, nil
	}
	whole.rootNs = r.spans[rootIdx].dur()
	child := make([]int64, len(r.spans)) // time covered by children, per span
	under := make([]bool, len(r.spans))
	under[rootIdx] = true
	for i := int(rootIdx) + 1; i < len(r.spans); i++ {
		s := &r.spans[i]
		if s.parent < 0 || !under[s.parent] {
			continue
		}
		under[i] = true
		child[s.parent] += s.dur()
	}
	for i := int(rootIdx); i < len(r.spans); i++ {
		if !under[i] {
			continue
		}
		s := &r.spans[i]
		whole.count(s, child[i])
		if s.block >= 0 {
			for int(s.block) >= len(steps) {
				steps = append(steps, profile{})
			}
			steps[s.block].count(s, child[i])
			if s.kind == kStep {
				steps[s.block].rootNs = s.dur()
			}
		}
	}
	return whole, steps
}

// count adds one span, of which children cover childNs, to p.
func (p *profile) count(s *span, childNs int64) {
	p.self[s.kind.layer()] += s.dur() - childNs
	p.total[s.kind] += s.dur()
	p.calls[s.kind]++
	p.work[s.kind] += s.work
	if s.kind == kSForces {
		p.durs[s.kind] = append(p.durs[s.kind], s.dur())
	}
}

// add folds q into p (the tenants' recorders, one per client).
func (p *profile) add(q profile) {
	p.rootNs += q.rootNs
	for l := range p.self {
		p.self[l] += q.self[l]
	}
	for k := range p.total {
		p.total[k] += q.total[k]
		p.calls[k] += q.calls[k]
		p.work[k] += q.work[k]
		p.durs[k] = append(p.durs[k], q.durs[k]...)
	}
}

// writeChromeTrace writes the recorders' spans in Chrome trace-event
// format (complete "X" events, microseconds), one tid per session.
func writeChromeTrace(path string, workload string, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			events = append(events, event{
				Name: kindName[s.kind], Cat: workload, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: 1, Tid: r.session,
				Args: map[string]any{"span": i, "parent": s.parent, "block": s.block, "session": r.session},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
