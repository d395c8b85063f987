// Command grape6bench regenerates the paper's tables and figures and checks
// them against their pins. Every experiment id (DESIGN.md's index) is one
// entry of one table, in report order: t1, every declarative spec under
// scenarios/ by id (Figs. 13-19, g6a, cosim, a4; run by internal/scenario),
// then the other bench.Runners (the tables, ablations and validation run).
//
//	grape6bench -exp f13          # Figure 13: single-node speed vs N
//	grape6bench -exp all          # everything
//	grape6bench -exp f19 -quick   # fast, low-fidelity pass
//	grape6bench -exp a6 -json     # figure JSON to stdout
//
// Every figure but t5c's, whose treecode row is this host's wall clock, is
// pinned: testdata/scenarios/<id>.quick.json holds the bytes -quick -json
// prints.
//
//	grape6bench -exp all -quick -diff     # diff every figure with its pin
//	grape6bench -exp g6a -quick -update   # re-pin one figure
//
// Output is a text rendition of each figure: one labelled series per
// curve, with the paper's reported result quoted alongside. With -diff,
// every way a figure differs from its pin is reported and the exit status
// is non-zero.
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

// table is every experiment in report order; specs is its run of
// scenario-spec entries, the "scenarios" target.
type table struct {
	all, specs []bench.Runner
}

// load builds the table from bench.Runners and the specs under dir. A
// spec may not take a runner's id: every id has one entry.
func load(dir string) (table, error) {
	list, err := scenario.LoadDir(dir)
	if err != nil {
		return table{}, err
	}
	runners := ids(bench.Runners)
	all := []bench.Runner{bench.Runners[0]}
	for _, s := range list {
		if runners[s.ID] {
			return table{}, fmt.Errorf("spec id %q is already a runner's", s.ID)
		}
		all = append(all, bench.Runner{ID: s.ID, Fig: func(o *bench.Options) (bench.Figure, error) {
			return scenario.Run(s, o)
		}})
	}
	t := table{all: append(all, bench.Runners[1:]...)}
	t.specs = t.all[1 : 1+len(list)]
	return t, nil
}

// ids returns the set of the runners' ids.
func ids(rs []bench.Runner) map[string]bool {
	set := make(map[string]bool, len(rs))
	for _, r := range rs {
		set[r.ID] = true
	}
	return set
}

// idList joins the runners' ids in table order.
func idList(rs []bench.Runner) string {
	l := make([]string, len(rs))
	for i, r := range rs {
		l[i] = r.ID
	}
	return strings.Join(l, " ")
}

// targets resolves an id, alias or meta target to its entries; meta
// reports a meta target.
func (t table) targets(id string) (rs []bench.Runner, meta bool) {
	if canon, ok := aliases[id]; ok {
		id = canon
	}
	switch id {
	case "all":
		return t.all, true
	case "scenarios":
		return t.specs, true
	}
	for _, r := range t.all {
		if r.ID == id {
			return []bench.Runner{r}, false
		}
	}
	return nil, false
}

func main() {
	var (
		exp = flag.String("exp", "all", fmt.Sprintf(
			"experiment id (-list shows every one), an alias (%s), \"scenarios\" for the spec matrix, or \"all\": t1, every spec by id, then the other runners",
			strings.Join(sortedKeys(aliases), ", ")))
		quick   = flag.Bool("quick", false, "reduced-fidelity fast mode")
		seed    = flag.Uint64("seed", 20031115, "random seed for workload sampling")
		scnDir  = flag.String("scenarios", "scenarios", "scenario spec directory")
		baseDir = flag.String("baseline", "testdata/scenarios", "pin directory")
		jsonOut = flag.Bool("json", false, "emit figure JSON instead of the text report")
		doDiff  = flag.Bool("diff", false, "diff each figure with its pin (non-zero exit on findings)")
		update  = flag.Bool("update", false, "re-pin each figure from this run")
		list    = flag.Bool("list", false, "list every known experiment id and exit")
	)
	flag.Parse()

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	opts.Seed = *seed

	tab, err := load(*scnDir)
	if err != nil {
		fatal("-scenarios %s: %v", *scnDir, err)
	}

	if *list {
		fmt.Printf("experiments: %s\n", idList(tab.all))
		fmt.Printf("scenario specs (%s): %s\n", *scnDir, idList(tab.specs))
		fmt.Printf("aliases: %s\n", strings.Join(sortedKeys(aliases), " "))
		fmt.Printf("meta: all scenarios\n")
		return
	}

	rs, meta := tab.targets(strings.ToLower(*exp))
	if rs == nil {
		fmt.Fprintf(os.Stderr, "grape6bench: unknown experiment %q\n", *exp)
		fmt.Fprintf(os.Stderr, "known: %s all scenarios (aliases: %s)\n",
			idList(tab.all), strings.Join(sortedKeys(aliases), " "))
		os.Exit(2)
	}
	if !meta && rs[0].WallClock && (*doDiff || *update) {
		fatal("%s is not pinned (wall-clock row): -diff and -update do not apply", rs[0].ID)
	}
	ok := true
	for _, r := range rs {
		ok = run(r, opts, *baseDir, *jsonOut, *doDiff, *update) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one experiment and applies the requested output and pin
// actions; the pin actions pass over a wall-clock figure. It returns
// false when a diff found differences.
func run(r bench.Runner, opts *bench.Options, pinDir string, jsonOut, doDiff, update bool) bool {
	if r.WallClock && (doDiff || update) {
		fmt.Printf("%s: not pinned (wall-clock row)\n", r.ID)
		if !jsonOut {
			return true
		}
		doDiff, update = false, false
	}
	fig, err := r.Run(opts)
	if err != nil {
		fatal("%v", err)
	}
	if update {
		if err := scenario.WriteBaseline(pinDir, fig); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: pin written to %s\n", r.ID, scenario.BaselinePath(pinDir, fig.ID, fig.Fidelity))
	}
	ok := true
	if doDiff {
		base, err := scenario.LoadBaseline(pinDir, r.ID, fig.Fidelity)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grape6bench: %v\n", err)
			ok = false
		} else if ps := scenario.Diff(fig, base, nil); len(ps) > 0 {
			fmt.Fprint(os.Stderr, scenario.FormatProblems(r.ID, ps))
			ok = false
		} else {
			points := 0
			for _, fs := range fig.Series {
				points += len(fs.Points)
			}
			fmt.Printf("%s: ok (%d series, %d points identical to the pin)\n", r.ID, len(fig.Series), points)
		}
	}
	if jsonOut || (!doDiff && !update) {
		emit(fig, jsonOut)
	}
	return ok
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

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "grape6bench: "+format+"\n", args...)
	os.Exit(1)
}
