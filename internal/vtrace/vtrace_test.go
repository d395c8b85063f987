package vtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRecorderTiling(t *testing.T) {
	r := NewSet(1).Recorder(0)
	r.Add(Grape, 0, 1)
	r.Add(CommSend, 1, 1.5)
	r.Add(HostWork, 2, 3) // gap [1.5,2] becomes idle
	r.Close(4)            // trailing gap [3,4] becomes idle
	if err := r.Check(4); err != nil {
		t.Fatal(err)
	}
	if got := r.Totals()[Idle]; got != 1.5 {
		t.Errorf("idle = %v, want 1.5", got)
	}
	if got := r.Totals().Sum(); got != 4 {
		t.Errorf("sum = %v, want exactly 4", got)
	}
	// The span chain must tile [0,4]: grape, comm-send, idle, host, idle.
	wantPhases := []Phase{Grape, CommSend, Idle, HostWork, Idle}
	spans := r.Spans()
	if len(spans) != len(wantPhases) {
		t.Fatalf("got %d spans, want %d", len(spans), len(wantPhases))
	}
	for i, sp := range spans {
		if sp.Phase != wantPhases[i] {
			t.Errorf("span %d = %v, want %v", i, sp.Phase, wantPhases[i])
		}
	}
}

// The breakdown contract is EXACT equality of the phase sum and the end
// time, even when the span endpoints are awkward floats whose differences
// accumulate rounding error.
func TestRecorderExactSumWithFloatNoise(t *testing.T) {
	r := NewSet(1).Recorder(0)
	cur := 0.0
	for i := 0; i < 10000; i++ {
		next := cur + 1e-7*(1+math.Mod(float64(i)*0.618, 1))
		r.Add(Phase(i%3), cur, next) // Grape, HostWork, CommSend
		cur = next
	}
	r.Close(cur)
	if err := r.Check(cur); err != nil {
		t.Fatal(err)
	}
	if got := r.Totals().Sum(); got != cur {
		t.Errorf("sum %v != end %v (diff %g)", got, cur, got-cur)
	}
}

func TestRecorderRejectsBadSpans(t *testing.T) {
	cases := []struct {
		name string
		feed func(r *Recorder)
	}{
		{"backwards", func(r *Recorder) { r.Add(Grape, 2, 1) }},
		{"overlap", func(r *Recorder) { r.Add(Grape, 0, 2); r.Add(HostWork, 1, 3) }},
		{"idle-phase", func(r *Recorder) { r.Add(Idle, 0, 1) }},
		{"bad-tag", func(r *Recorder) { r.Span(int(Idle), 0, 1) }},
		{"negative-tag", func(r *Recorder) { r.Span(-1, 0, 1) }},
		{"after-close", func(r *Recorder) { r.Close(1); r.Add(Grape, 1, 2) }},
	}
	for _, tc := range cases {
		r := NewSet(1).Recorder(0)
		tc.feed(r)
		r.Close(5)
		if err := r.Check(5); err == nil {
			t.Errorf("%s: Check passed, want error", tc.name)
		}
	}
}

func TestRecorderCheckCatchesWrongEnd(t *testing.T) {
	r := NewSet(1).Recorder(0)
	r.Add(Grape, 0, 1)
	r.Close(2)
	if err := r.Check(3); err == nil {
		t.Error("Check accepted mismatched end time")
	}
	if err := NewSet(1).Recorder(0).Check(1); err == nil {
		t.Error("Check accepted unclosed recorder")
	}
}

func TestNilRecorderAndSetAreNoOps(t *testing.T) {
	var r *Recorder
	r.Add(Grape, 0, 1)
	r.Span(0, 0, 1)
	r.Close(1)
	if err := r.Check(1); err != nil {
		t.Errorf("nil recorder Check: %v", err)
	}
	if r.SetWait(Sync) != CommWait {
		t.Error("nil SetWait should report CommWait")
	}
	if r.Totals() != (PhaseTotals{}) || r.Spans() != nil {
		t.Error("nil recorder accessors not zero")
	}

	var s *Set
	s.RecvBlocked(0, 0, 0, 1)
	s.Close(1)
	if err := s.Check(1); err != nil {
		t.Errorf("nil set Check: %v", err)
	}
	if s.Recorder(0) != nil || s.Breakdown() != nil {
		t.Error("nil set accessors not zero")
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("nil set WriteTrace: %v", err)
	}
	var f map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil set trace not JSON: %v", err)
	}
}

func TestSetWaitAttribution(t *testing.T) {
	s := NewSet(2)
	r := s.Recorder(1)
	s.RecvBlocked(1, 0, 0, 1) // default wait: CommWait
	old := r.SetWait(Sync)
	if old != CommWait {
		t.Errorf("previous wait = %v", old)
	}
	s.RecvBlocked(1, 0, 1, 2) // now Sync
	r.SetWait(old)
	s.RecvBlocked(1, 0, 2, 3) // back to CommWait
	s.Close(3)
	if err := s.Check(3); err != nil {
		t.Fatal(err)
	}
	if r.Totals()[CommWait] != 2 || r.Totals()[Sync] != 1 {
		t.Errorf("comm-wait=%v sync=%v, want 2/1", r.Totals()[CommWait], r.Totals()[Sync])
	}
}

func TestBreakdownMeanAndTable(t *testing.T) {
	s := NewSet(2)
	s.Recorder(0).Add(Grape, 0, 1)
	s.Recorder(1).Add(HostWork, 0, 3)
	s.Close(4)
	if err := s.Check(4); err != nil {
		t.Fatal(err)
	}
	b := s.Breakdown()
	if b.End != 4 {
		t.Errorf("end = %v", b.End)
	}
	m := b.Mean()
	if m[Grape] != 0.5 || m[HostWork] != 1.5 || m.Sum() != 4 {
		t.Errorf("mean = %+v", m)
	}
	// Model-component mapping.
	if m.Host() != m[HostWork] || m.Grape() != m[Grape] ||
		m.Comm() != m[CommSend] || m.Sync() != m[Sync]+m[CommWait] {
		t.Error("model accessors disagree with phase mapping")
	}
	tab := b.Table()
	for _, want := range []string{"rank", "grape", "comm-wait", "mean", "total"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	if lines := strings.Count(tab, "\n"); lines != 4 { // header + 2 ranks + mean
		t.Errorf("table has %d lines, want 4:\n%s", lines, tab)
	}
}

func TestWriteTraceRoundTrip(t *testing.T) {
	s := NewSet(2)
	s.Recorder(0).Add(Grape, 0, 0.5)
	s.Recorder(0).Add(CommSend, 0.75, 1) // idle gap at [0.5,0.75]
	s.Recorder(1).Add(Sync, 0, 1)
	s.Close(1)
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	var meta, spans int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Name == "idle" {
				t.Error("idle span exported; idle should be a gap")
			}
			if ev.Name == "grape" && (ev.Ts != 0 || ev.Dur != 0.5e6) {
				t.Errorf("grape span ts=%v dur=%v, want virtual µs", ev.Ts, ev.Dur)
			}
		default:
			t.Errorf("unexpected event type %q", ev.Ph)
		}
	}
	if meta != 2 {
		t.Errorf("%d process metadata events, want 2", meta)
	}
	if spans != 3 { // grape, comm-send, sync — idle omitted
		t.Errorf("%d span events, want 3", spans)
	}
}
