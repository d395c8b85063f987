package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minReps is the fewest fresh repetitions a run makes: two are needed to
// check that the exact outputs repeat.
const minReps = 2

//go:embed expected.json
var expectedJSON []byte

// expectedFile pins the exact outputs of every workload for the default
// seed at full size on amd64.
type expectedFile struct {
	Seed      uint64                       `json:"seed"`
	GOARCH    string                       `json:"goarch"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadExpected() (expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return f, fmt.Errorf("expected.json: %w", err)
	}
	return f, nil
}

// diffExact reports every key on which got differs from want.
func diffExact(got, want map[string]string) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if got[k] != want[k] {
			out = append(out, fmt.Sprintf("%s = %q, want %q", k, got[k], want[k]))
		}
	}
	return out
}

// checker holds a workload's repetitions to one another and, for the
// pinned configuration, to expected.json.
type checker struct {
	name   string
	first  map[string]string
	pinned map[string]string // nil when this run is not the pinned configuration
}

func newChecker(w *workload, e *env) (*checker, error) {
	c := &checker{name: w.name}
	if e.pinned(w) {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		c.pinned = exp.Workloads[w.name]
	}
	return c, nil
}

// check counts a repetition's disagreements as failed operations.
func (c *checker) check(r *repResult) {
	if r.failed == 0 { // a failed repetition has no outputs worth comparing
		if c.first == nil {
			c.first = r.exact
			if c.pinned != nil {
				for _, d := range diffExact(r.exact, c.pinned) {
					r.failf(c.name, "differs from expected.json: %s", d)
				}
			}
		} else {
			for _, d := range diffExact(r.exact, c.first) {
				r.failf(c.name, "repetitions disagree: %s", d)
			}
		}
	}
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
}

// untracedRun makes fresh repetitions with tracing off, each one set-up plus
// measured window, until seconds have passed (at least minReps).
func untracedRun(w *workload, e *env, seconds float64) ([]repResult, error) {
	c, err := newChecker(w, e)
	if err != nil {
		return nil, err
	}
	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r := w.rep(e, false)
		c.check(&r)
		reps = append(reps, r)
		if r.wallS == 0 { // set-up failed; repeating cannot help
			break
		}
	}
	return reps, nil
}

// tracedResult is the traced phase of one workload.
type tracedResult struct {
	attempted, failed int64
	layer             map[string]float64
	recs              []*recorder // the spans of the traced repetition with the shortest window
}

// tracedRun alternates repetitions with tracing off and repetitions behind
// the recording wrappers (which must not change a bit of the outputs) until
// seconds have passed, so that layer times and tracing overhead are read
// off steady windows like the end-to-end metrics are; then it runs the
// workload's extras and the probes. A workload with no layers to wrap makes
// one pair.
func tracedRun(w *workload, e *env, seconds float64) (tracedResult, error) {
	c, err := newChecker(w, e)
	if err != nil {
		return tracedResult{}, err
	}
	var res tracedResult
	var as, bs []repResult
	start := time.Now()
	for len(bs) == 0 || (len(bs[0].recs) > 0 && time.Since(start).Seconds() < seconds) {
		for _, traced := range []bool{false, true} {
			r := w.rep(e, traced)
			c.check(&r)
			res.attempted += r.attempted
			res.failed += r.failed
			if traced {
				bs = append(bs, r)
			} else {
				as = append(as, r)
			}
		}
	}
	a, b := steady(as), steady(bs)
	var extras map[string]float64
	if w.extra != nil {
		extras = w.extra(e, a)
	}
	probes, err := runProbes()
	if err != nil {
		return tracedResult{}, err
	}
	overhead := 0.0
	if len(bs[0].recs) > 0 {
		overhead = b.wallS/a.wallS - 1
	}
	// The counters a traced repetition reads off the program are exact,
	// or window-long rates that go with the window taken whole.
	best := shortest(bs)
	res.layer = layerMetrics(a, best.layer, steadyProfile(bs), overhead, extras, probes)
	res.recs = best.recs
	return res, nil
}

// updateExpected runs one full-size repetition of every workload at the
// default seed and rewrites expected.json.
func updateExpected(root string) error {
	e := &env{seed: defaultSeed, sz: fullSizes, root: root}
	f := expectedFile{Seed: defaultSeed, GOARCH: "amd64", Workloads: map[string]map[string]string{}}
	for i := range workloads {
		w := &workloads[i]
		r := w.rep(e, false)
		if r.failed > 0 {
			return fmt.Errorf("%s: %d failed operations; expected.json left as it was", w.name, r.failed)
		}
		f.Workloads[w.name] = r.exact
		fmt.Fprintf(os.Stderr, "pinned %s\n", w.name)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "benchmark", "expected.json"), append(data, '\n'), 0o644)
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory that holds the f13 scenario spec.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "scenarios", "f13.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no scenarios/f13.json at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}
