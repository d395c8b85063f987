// Command benchmark measures this repository's own performance, end to end
// and layer by layer: five closed-loop workloads built from a seed, timed
// with tracing off, then run once more with recording wrappers around the
// calls into hermite → gbackend → board (and grape6d) and with isolated
// probes of chip and gfixed. See README.md.
//
//	go run -C benchmark .                      # every workload, both phases
//	go run -C benchmark . -workload resident -seed 7 -seconds 10 -trace 0
//	go run -C benchmark . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print one JSON result line (default: all five, both phases)")
	seed := fs.Uint64("seed", defaultSeed, "seed every input is built from")
	seconds := fs.Float64("seconds", 15, "time to measure a workload for: fresh repetitions (set-up + window) are added until it has passed")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced run")
	quick := fs.Bool("quick", false, "shrunken sizes (for tests; the numbers mean nothing)")
	out := fs.String("out", "", "write the full record (host, every metric with its range) to this file")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans to this file in Chrome trace-event format")
	update := fs.Bool("update-expected", false, "re-pin expected.json from one full-size run at the default seed")
	compare := fs.Bool("compare", false, "compare two -out records: benchmark -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	// All load comes from this one process; pin the parallelism so two
	// records are comparable.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *update {
		if err := updateExpected(root); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	e := &env{seed: *seed, sz: fullSizes, root: root}
	if *quick {
		e.sz = quickSizes
	}
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		return runOne(stdout, w, e, *seconds, *trace != 0, *traceOut)
	}
	return runSuite(stdout, e, *seconds, *out, *traceOut)
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is what one run of one workload prints last.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is the driver's entry: one workload, one phase, one JSON line.
func runOne(stdout io.Writer, w *workload, e *env, seconds float64, traced bool, traceOut string) int {
	line := resultLine{Metrics: map[string]value{}}
	if traced {
		tr, err := tracedRun(w, e, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		line.Attempted, line.Failed = tr.attempted, tr.failed
		for _, d := range perLayer {
			line.Metrics[d.name] = value{tr.layer[d.name], d.unit}
		}
		if traceOut != "" {
			if err := writeChromeTrace(traceOut, w.name, tr.recs); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	} else {
		reps, err := untracedRun(w, e, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for i := range reps {
			line.Attempted += reps[i].attempted
			line.Failed += reps[i].failed
		}
		for name, st := range summarize(reps) {
			line.Metrics[name] = value{st.Value, st.Unit}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// hostRecord says where and on what a record was taken, and whether the
// host's speed moved while it was.
type hostRecord struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SpinBefore float64 `json:"spin_before_ms"`
	SpinAfter  float64 `json:"spin_after_ms"`
	HostNoisy  bool    `json:"host_noisy"`
}

// spinMs times a fixed float64 loop: the host's speed for this process,
// right now.
func spinMs() float64 {
	best := 0.0
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		probeSink += x
		if d := float64(time.Since(t0)) / 1e6; r == 0 || d < best {
			best = d
		}
	}
	return best
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workloadRecord is everything one workload measured.
type workloadRecord struct {
	Name       string            `json:"name"`
	Reps       int               `json:"reps"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FailedFrac float64           `json:"failed_frac"`
	EndToEnd   map[string]stat   `json:"end_to_end"`
	PerLayer   map[string]value  `json:"per_layer"`
	Exact      map[string]string `json:"exact"`
}

// record is the file -out writes and -compare reads.
type record struct {
	Host      hostRecord       `json:"host"`
	Seed      uint64           `json:"seed"`
	Quick     bool             `json:"quick"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadRecord `json:"workloads"`
}

// runSuite runs every workload through both phases and prints every metric
// by name with its unit.
func runSuite(stdout io.Writer, e *env, seconds float64, out, traceOut string) int {
	rec := record{
		Host: hostRecord{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Commit: gitCommit(e.root),
			SpinBefore: spinMs(),
		},
		Seed: e.seed, Quick: e.sz.quick, Seconds: seconds,
	}
	fmt.Fprintf(stdout, "host: %d cpu, GOMAXPROCS %d, %s, %s, commit %s, seed %d\n",
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GOARCH, rec.Host.GoVersion, rec.Host.Commit, e.seed)

	for i := range workloads {
		w := &workloads[i]
		reps, err := untracedRun(w, e, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		e2e := summarize(reps)
		tr, err := tracedRun(w, e, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		wr := workloadRecord{
			Name: w.name, Reps: len(reps), EndToEnd: e2e,
			PerLayer: map[string]value{}, Exact: reps[0].exact,
			Attempted: tr.attempted, Failed: tr.failed,
		}
		for j := range reps {
			wr.Attempted += reps[j].attempted
			wr.Failed += reps[j].failed
		}
		wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
		for _, d := range perLayer {
			wr.PerLayer[d.name] = value{tr.layer[d.name], d.unit}
		}
		rec.Workloads = append(rec.Workloads, wr)
		printWorkload(stdout, &wr)
		if traceOut != "" && len(tr.recs) > 0 {
			// One file per workload that has spans: name.ext → name.<workload>.ext.
			if err := writeChromeTrace(tracePath(traceOut, w.name), w.name, tr.recs); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}

	rec.Host.SpinAfter = spinMs()
	lo, hi := rec.Host.SpinBefore, rec.Host.SpinAfter
	if lo > hi {
		lo, hi = hi, lo
	}
	rec.Host.HostNoisy = hi > 1.10*lo
	fmt.Fprintf(stdout, "\nspin calibration: %.2f ms before, %.2f ms after, host_noisy=%v\n",
		rec.Host.SpinBefore, rec.Host.SpinAfter, rec.Host.HostNoisy)

	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for i := range rec.Workloads {
		if rec.Workloads[i].Failed > 0 {
			return 1
		}
	}
	return 0
}

// tracePath inserts the workload's name before the extension of path.
func tracePath(path, workload string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + workload + path[i:]
	}
	return path + "." + workload
}

func printWorkload(out io.Writer, w *workloadRecord) {
	fmt.Fprintf(out, "\n== %s: %d repetitions, %d operations attempted, %d failed (failed_frac %.3g)\n",
		w.Name, w.Reps, w.Attempted, w.Failed, w.FailedFrac)
	fmt.Fprintf(out, "  %-28s %14s %14s %14s  %s\n", "end to end (tracing off)", "value", "min", "max", "unit")
	for _, d := range endToEnd {
		st := w.EndToEnd[d.name]
		fmt.Fprintf(out, "  %-28s %14.6g %14.6g %14.6g  %s (n=%d)\n", d.name, st.Value, st.Min, st.Max, st.Unit, st.N)
	}
	fmt.Fprintf(out, "  %-28s %14s\n", "per layer (traced run)", "value")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-28s %14.6g  %s\n", d.name, w.PerLayer[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(w.Exact))
	for k := range w.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "  exact:")
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%s", k, w.Exact[k])
	}
	fmt.Fprintln(out)
}
