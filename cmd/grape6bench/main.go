// Command grape6bench regenerates the paper's tables and figures. Every
// experiment id (DESIGN.md's index) has exactly one source: a declarative
// spec under scenarios/ (Figs. 13-19, g6a, cosim) run by internal/scenario,
// or an entry of bench.Runners (the tables, ablations and validation run).
//
//	grape6bench -exp f13          # Figure 13: single-node speed vs N
//	grape6bench -exp all          # everything
//	grape6bench -exp f19 -quick   # fast, low-fidelity pass
//	grape6bench -exp a4 -json     # figure JSON to stdout
//
// Specs also carry the committed-baseline regression workflow:
//
//	grape6bench -exp scenarios -quick -diff    # diff the whole matrix
//	grape6bench -exp g6a -quick -update   # re-pin one baseline
//
// Output is a text rendition of each figure: one labelled series per
// curve, with the paper's reported result quoted alongside. With -diff,
// out-of-tolerance points, missing/extra series and non-finite values
// are reported and the exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"grape6/internal/bench"
	"grape6/internal/scenario"
)

// runnerIDs lists bench.Runners in table order: the -exp flag help, -list
// and the unknown-id error are all generated from it.
func runnerIDs() []string {
	ids := make([]string, len(bench.Runners))
	for i, r := range bench.Runners {
		ids[i] = r.ID
	}
	return ids
}

// aliases are the DESIGN.md index names for the application experiments.
var aliases = map[string]string{
	"kuiper":   "t5ab",
	"bhbinary": "t5ab",
	"treecmp":  "t5c",
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func main() {
	expHelp := fmt.Sprintf(
		"experiment id: a runner (%s), a scenario spec id (-list shows them), an alias (%s), \"scenarios\" for the whole spec matrix, or \"all\": %s, every spec by id (Figs. 13-19 exactly as the baselines pin them, g6a, cosim), then the other runners",
		strings.Join(runnerIDs(), ", "), strings.Join(sortedKeys(aliases), ", "), bench.Runners[0].ID)

	var (
		exp     = flag.String("exp", "all", expHelp)
		quick   = flag.Bool("quick", false, "reduced-fidelity fast mode")
		seed    = flag.Uint64("seed", 20031115, "random seed for workload sampling")
		scnDir  = flag.String("scenarios", "scenarios", "scenario spec directory")
		baseDir = flag.String("baseline", "testdata/scenarios", "committed figure-baseline directory")
		jsonOut = flag.Bool("json", false, "emit figure JSON instead of the text report")
		doDiff  = flag.Bool("diff", false, "diff against the committed baseline (non-zero exit on findings)")
		update  = flag.Bool("update", false, "regenerate the committed baseline from this run")
		list    = flag.Bool("list", false, "list every known experiment id and exit")
	)
	flag.Parse()

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	opts.Seed = *seed

	specs, err := loadSpecs(*scnDir)
	if err != nil {
		fatal("-scenarios %s: %v", *scnDir, err)
	}

	if *list {
		fmt.Printf("runners: %s\n", strings.Join(runnerIDs(), " "))
		fmt.Printf("scenario specs (%s): %s\n", *scnDir, strings.Join(sortedKeys(specs), " "))
		fmt.Printf("aliases: %s\n", strings.Join(sortedKeys(aliases), " "))
		fmt.Printf("meta: all scenarios\n")
		return
	}

	id := strings.ToLower(*exp)
	if canon, ok := aliases[id]; ok {
		id = canon
	}

	ok := true
	switch {
	case id == "all":
		requireNoScenarioFlags(*jsonOut, *doDiff, *update, "all")
		runRunner(bench.Runners[0], opts, false)
		for _, sid := range sortedKeys(specs) {
			runSpec(specs[sid], opts, *baseDir, false, false, false)
		}
		for _, r := range bench.Runners[1:] {
			runRunner(r, opts, false)
		}
	case id == "scenarios":
		for _, sid := range sortedKeys(specs) {
			if !runSpec(specs[sid], opts, *baseDir, *jsonOut, *doDiff, *update) {
				ok = false
			}
		}
	case specs[id] != nil:
		ok = runSpec(specs[id], opts, *baseDir, *jsonOut, *doDiff, *update)
	default:
		r := findRunner(id)
		if r == nil {
			fmt.Fprintf(os.Stderr, "grape6bench: unknown experiment %q\n", *exp)
			fmt.Fprintf(os.Stderr, "known: %s all scenarios (aliases: %s; specs under %s: %s)\n",
				strings.Join(runnerIDs(), " "), strings.Join(sortedKeys(aliases), " "),
				*scnDir, strings.Join(sortedKeys(specs), " "))
			os.Exit(2)
		}
		requireNoScenarioFlags(false, *doDiff, *update, id)
		runRunner(*r, opts, *jsonOut)
	}
	if !ok {
		os.Exit(1)
	}
}

// findRunner returns the bench.Runners entry with the id, or nil.
func findRunner(id string) *bench.Runner {
	for i := range bench.Runners {
		if bench.Runners[i].ID == id {
			return &bench.Runners[i]
		}
	}
	return nil
}

// loadSpecs returns the scenario specs by id. A spec may not take a
// runner's id: every id has one source.
func loadSpecs(dir string) (map[string]*scenario.Spec, error) {
	list, err := scenario.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	specs := make(map[string]*scenario.Spec, len(list))
	for _, s := range list {
		if findRunner(s.ID) != nil {
			return nil, fmt.Errorf("spec id %q is already a runner's", s.ID)
		}
		specs[s.ID] = s
	}
	return specs, nil
}

// runRunner executes one table runner and prints its figure.
func runRunner(r bench.Runner, opts *bench.Options, jsonOut bool) {
	fig, err := r.Run(opts)
	if err != nil {
		fatal("%v", err)
	}
	emit(fig, jsonOut)
}

// emit prints a figure in one of its two renditions.
func emit(fig bench.Figure, jsonOut bool) {
	if !jsonOut {
		fig.Format(os.Stdout)
		return
	}
	if err := fig.Write(os.Stdout); err != nil {
		fatal("%v", err)
	}
}

// runSpec executes one spec and applies the requested output/baseline
// actions. It returns false when a diff found problems.
func runSpec(s *scenario.Spec, opts *bench.Options, baseDir string, jsonOut, doDiff, update bool) bool {
	fig, err := scenario.Run(s, opts)
	if err != nil {
		fatal("%v", err)
	}
	if update {
		if err := scenario.WriteBaseline(baseDir, fig); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: baseline written to %s\n", s.ID, scenario.BaselinePath(baseDir, fig.ID, fig.Fidelity))
	}
	ok := true
	if doDiff {
		base, err := scenario.LoadBaseline(baseDir, s.ID, fig.Fidelity)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grape6bench: %v\n", err)
			ok = false
		} else if ps := scenario.Diff(fig, base, s); len(ps) > 0 {
			fmt.Fprint(os.Stderr, scenario.FormatProblems(s.ID, ps))
			ok = false
		} else {
			points := 0
			for _, fs := range fig.Series {
				points += len(fs.Points)
			}
			fmt.Printf("%s: ok (%d series, %d points within tolerance)\n", s.ID, len(fig.Series), points)
		}
	}
	if jsonOut || (!doDiff && !update) {
		emit(fig, jsonOut)
	}
	return ok
}

// requireNoScenarioFlags rejects baseline actions on targets that have
// no spec (and -json on "all", which emits many figures).
func requireNoScenarioFlags(jsonOut, doDiff, update bool, id string) {
	if jsonOut {
		fatal("-json is not supported with -exp %s", id)
	}
	if doDiff || update {
		fatal("-diff/-update need a scenario spec for %q (none found; see -list)", id)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "grape6bench: "+format+"\n", args...)
	os.Exit(1)
}
