package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixture runs every workload once untraced and once traced at the quick
// sizes; the tests below read it.
var fixture struct {
	once     sync.Once
	err      error
	e        *env
	untraced map[string]repResult
	traced   map[string]repResult
}

func quickPair(t *testing.T, name string) (repResult, repResult) {
	t.Helper()
	fixture.once.Do(func() {
		root, err := repoRoot()
		if err != nil {
			fixture.err = err
			return
		}
		fixture.e = &env{seed: 7, sz: quickSizes, root: root}
		fixture.untraced = map[string]repResult{}
		fixture.traced = map[string]repResult{}
		for i := range workloads {
			w := &workloads[i]
			fixture.untraced[w.name] = w.rep(fixture.e, false)
			fixture.traced[w.name] = w.rep(fixture.e, true)
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.untraced[name], fixture.traced[name]
}

// Two repetitions of a workload give identical counts and hashes, and the
// second one ran behind the recording wrappers: they change no output bit.
func TestRepetitionsAgreeAndWrappersAreTransparent(t *testing.T) {
	for i := range workloads {
		name := workloads[i].name
		a, b := quickPair(t, name)
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: %d + %d failed operations", name, a.failed, b.failed)
		}
		if a.attempted < 1 || len(a.exact) == 0 {
			t.Errorf("%s: attempted %d operations, %d exact outputs", name, a.attempted, len(a.exact))
		}
		if d := diffExact(b.exact, a.exact); len(d) > 0 {
			t.Errorf("%s: traced repetition differs from untraced: %v", name, d)
		}
	}
}

// The wrappers keep every optional method the layers type-assert for, so
// the prefetch and the yield hint still reach the layer below.
func TestWrappersForwardOptionalCalls(t *testing.T) {
	calls := func(name string) [nKinds]int64 {
		_, b := quickPair(t, name)
		var n [nKinds]int64
		for _, r := range b.recs {
			for i := range r.spans {
				n[r.spans[i].kind]++
			}
		}
		return n
	}
	n := calls("resident")
	for _, k := range []kind{kStep, kGLoad, kGUpdate, kGForces, kGPredict, kGYield, kBLoad, kBUpdate, kBForces, kBPredict} {
		if n[k] == 0 {
			t.Errorf("resident: no %s span", kindName[k])
		}
	}
	n = calls("tenants")
	for _, k := range []kind{kStep, kGForces, kGPredict, kGYield, kSLoad, kSUpdate, kSForces, kSPredict, kSYield} {
		if n[k] == 0 {
			t.Errorf("tenants: no %s span", kindName[k])
		}
	}
	for _, name := range []string{"fig13", "cosim"} {
		if _, b := quickPair(t, name); len(b.recs) != 0 {
			t.Errorf("%s recorded spans; it must bypass the emulator layers", name)
		}
	}
}

// Self times tile the traced window: summed over all spans they equal the
// root's duration to the nanosecond, and the driver's own loop (the root's
// self time) is under 1 % of it.
func TestSpanSelfTimesTileTheWindow(t *testing.T) {
	for _, name := range []string{"resident", "hardbinary", "tenants"} {
		_, b := quickPair(t, name)
		if len(b.recs) == 0 {
			t.Fatalf("%s: no recorder", name)
		}
		for _, r := range b.recs {
			p, steps := profileOf(r, kWindow)
			var sum int64
			for _, s := range p.self {
				sum += s
			}
			if sum != p.rootNs || p.rootNs == 0 {
				t.Errorf("%s session %d: self times sum to %d ns, window is %d ns", name, r.session, sum, p.rootNs)
			}
			if frac := float64(p.self[lBench]) / float64(p.rootNs); frac > 0.01 {
				t.Errorf("%s session %d: %.2f%% of the window is outside every layer's spans", name, r.session, 100*frac)
			}
			var inSteps int64
			for b := range steps {
				for _, s := range steps[b].self {
					inSteps += s
				}
			}
			if want := p.rootNs - p.self[lBench]; inSteps != want || int64(len(steps)) != p.calls[kStep] {
				t.Errorf("%s session %d: %d per-step profiles hold %d ns, the window's steps %d ns", name, r.session, len(steps), inSteps, want)
			}
			for i := range r.spans {
				if s := &r.spans[i]; s.end < s.start || (s.parent >= 0 && r.spans[s.parent].start > s.start) {
					t.Fatalf("%s: span %d is not nested in its parent", name, i)
				}
			}
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json declares exactly what the program prints: no metric
// printed but undeclared, none declared but missing.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	a, b := quickPair(t, "cosim")
	data, err := os.ReadFile(filepath.Join(fixture.e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d run", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d declared %q, is %q", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, measured %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d measured", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, measured %+v", i, got, d)
		}
	}

	names := func(tab []decl) []string {
		var out []string
		for _, d := range tab {
			out = append(out, d.name)
		}
		sort.Strings(out)
		return out
	}
	var got []string
	for k := range summarize([]repResult{a}) {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := names(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("summarize gives %v, declared %v", got, want)
	}
	got = got[:0]
	for k := range layerMetrics(a, b.layer, steadyProfile([]repResult{b}), 0, nil, nil) {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := names(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("layerMetrics gives %v, declared %v", got, want)
	}
}

// Every per-layer value a workload hands up is one the table declares.
func TestWorkloadLayerValuesAreDeclared(t *testing.T) {
	declared := map[string]bool{"grape6d.busy_s": true} // input of grape6d.wait_frac, not printed
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for i := range workloads {
		_, b := quickPair(t, workloads[i].name)
		for k := range b.layer {
			if !declared[k] {
				t.Errorf("%s reports undeclared %q", workloads[i].name, k)
			}
		}
	}
}

// The driver's entry prints one JSON object with exactly the contract's
// keys as its last line, in both phases.
func TestResultLine(t *testing.T) {
	for trace, tab := range map[string][]decl{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		if code := run([]string{"-workload", "cosim", "-quick", "-seed", "3", "-seconds", "0", "-trace", trace}, &out); code != 0 {
			t.Fatalf("-trace %s: exit %d", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok {
				t.Errorf("-trace %s: no %q key", trace, k)
			}
		}
		if len(line) != 4 {
			t.Errorf("-trace %s: %d keys, want 4", trace, len(line))
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tab) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(metrics), len(tab))
		}
		for _, d := range tab {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("-trace %s: metric %s is %+v (present %v)", trace, d.name, m, ok)
			}
		}
	}
	if code := run([]string{"-workload", "nosuch"}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exits 0")
	}
}

// A repetition whose outputs differ from the first, or from the pinned
// ones, is counted as failed, and the message names the output.
func TestCheckerCountsDisagreement(t *testing.T) {
	c := &checker{name: "t", pinned: map[string]string{"hash": "0x1", "blocks": "3"}}
	first := newRepResult()
	first.attempted = 10
	first.exact = map[string]string{"hash": "0x1", "blocks": "3"}
	c.check(&first)
	if first.failed != 0 {
		t.Fatalf("agreeing repetition counted %d failures", first.failed)
	}
	second := newRepResult()
	second.attempted = 10
	second.exact = map[string]string{"hash": "0x2", "blocks": "3"}
	c.check(&second)
	if second.failed != 1 {
		t.Errorf("disagreeing repetition counted %d failures, want 1", second.failed)
	}
	if d := diffExact(second.exact, first.exact); len(d) != 1 || !strings.Contains(d[0], "hash") {
		t.Errorf("diffExact = %v, want one line naming hash", d)
	}
	c = &checker{name: "t", pinned: map[string]string{"hash": "0x9"}}
	third := newRepResult()
	third.attempted = 1
	third.exact = map[string]string{"hash": "0x1", "blocks": "3"}
	c.check(&third)
	if third.failed != 1 { // two differences, capped at the operations attempted
		t.Errorf("unpinned outputs counted %d failures, want 1", third.failed)
	}
}

func TestVerdict(t *testing.T) {
	lower := decl{"wall_s", "s", "lower", 0.05}
	higher := decl{"psteps_per_s", "1/s", "higher", 0.05}
	st := func(min, med, max float64) stat { return stat{Value: med, Min: min, Max: max, N: 3} }
	for _, c := range []struct {
		d        decl
		old, cur stat
		want     string
	}{
		{lower, st(0.99, 1, 1.01), st(0.99, 1.01, 1.02), vUnchanged},
		{lower, st(0.99, 1, 1.01), st(1.07, 1.08, 1.09), vRegressed},
		{lower, st(0.99, 1, 1.01), st(0.90, 0.91, 0.92), vImproved},
		{lower, st(0.90, 1, 1.10), st(0.92, 1.02, 1.12), vUnresolved},
		{lower, st(0.90, 1, 1.10), st(0.80, 0.85, 0.89), vImproved},
		{higher, st(99, 100, 101), st(92, 93, 94), vRegressed},
		{higher, st(99, 100, 101), st(108, 109, 110), vImproved},
		{higher, st(99, 100, 101), st(98, 99, 100), vUnchanged},
	} {
		if got := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s old %+v new %+v: %s, want %s", c.d.name, c.old, c.cur, got, c.want)
		}
	}
}

// -compare exits 1 on a regression or on more failures, 0 otherwise.
func TestCompareFiles(t *testing.T) {
	a, _ := quickPair(t, "cosim")
	base := record{Seed: 7, Quick: true, Workloads: []workloadRecord{{
		Name: "cosim", EndToEnd: summarize([]repResult{a, a}), Exact: a.exact,
	}}}
	write := func(name string, r record) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", base)
	var out bytes.Buffer
	if code := compareFiles(&out, old, old); code != 0 {
		t.Errorf("a record against itself exits %d:\n%s", code, out.String())
	}
	slow := base
	slow.Workloads = []workloadRecord{base.Workloads[0]}
	slow.Workloads[0].EndToEnd = map[string]stat{}
	for k, s := range base.Workloads[0].EndToEnd {
		slow.Workloads[0].EndToEnd[k] = s
	}
	w := slow.Workloads[0].EndToEnd["wall_s"]
	w.Value, w.Min, w.Max = 2*w.Value, 2*w.Min, 2*w.Max
	slow.Workloads[0].EndToEnd["wall_s"] = w
	out.Reset()
	if code := compareFiles(&out, old, write("slow.json", slow)); code != 1 || !strings.Contains(out.String(), vRegressed) {
		t.Errorf("a doubled wall_s exits %d:\n%s", code, out.String())
	}
	failing := base
	failing.Workloads = []workloadRecord{base.Workloads[0]}
	failing.Workloads[0].FailedFrac = 0.5
	if code := compareFiles(&bytes.Buffer{}, old, write("failing.json", failing)); code != 1 {
		t.Errorf("a higher failed_frac exits %d", code)
	}
}

// -trace-out is Chrome trace-event JSON with one event per span, each
// carrying its parent, block and session.
func TestChromeTrace(t *testing.T) {
	_, b := quickPair(t, "tenants")
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChromeTrace(path, "tenants", b.recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range b.recs {
		want += len(r.spans)
	}
	if len(doc.TraceEvents) != want || want == 0 {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), want)
	}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		tids[ev.Tid] = true
		if ev.Ph != "X" || ev.Name == "" || ev.Ts == nil || ev.Dur == nil {
			t.Fatalf("malformed event %+v", ev)
		}
		for _, k := range []string{"parent", "block", "session"} {
			if _, ok := ev.Args[k]; !ok {
				t.Fatalf("event %q has no %s", ev.Name, k)
			}
		}
	}
	if len(tids) != tenants {
		t.Errorf("%d timelines, want one per tenant", len(tids))
	}
}
