// Command grape6bench regenerates the paper's tables and figures and checks
// them against their pins. Every experiment id (DESIGN.md's index) is one
// spec under scenarios/, run by internal/scenario; -exp all runs every one
// in id order.
//
//	grape6bench -exp f13          # Figure 13: single-node speed vs N
//	grape6bench -exp all          # everything
//	grape6bench -exp f19 -quick   # fast, low-fidelity pass
//	grape6bench -exp a6 -json     # figure JSON to stdout
//
// Every figure is pinned: testdata/scenarios/<id>.quick.json holds the
// bytes -quick -json prints.
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
	"strings"

	"grape6/internal/bench"
	"grape6/internal/scenario"
)

// pick returns exp's specs: the one with that id, or every spec (in id
// order) for "all"; nil for an unknown id.
func pick(specs []*scenario.Spec, exp string) []*scenario.Spec {
	if exp == "all" {
		return specs
	}
	for _, s := range specs {
		if s.ID == exp {
			return []*scenario.Spec{s}
		}
	}
	return nil
}

// idList joins the specs' ids.
func idList(specs []*scenario.Spec) string {
	l := make([]string, len(specs))
	for i, s := range specs {
		l[i] = s.ID
	}
	return strings.Join(l, " ")
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (-list shows every one), or \"all\": every spec under -scenarios, in id order")
		quick   = flag.Bool("quick", false, "reduced-fidelity fast mode")
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

	specs, err := scenario.LoadDir(*scnDir)
	if err != nil {
		fatal("-scenarios %s: %v", *scnDir, err)
	}

	if *list {
		fmt.Printf("experiments (%s): %s all\n", *scnDir, idList(specs))
		return
	}

	rs := pick(specs, strings.ToLower(*exp))
	if rs == nil {
		fmt.Fprintf(os.Stderr, "grape6bench: unknown experiment %q\n", *exp)
		fmt.Fprintf(os.Stderr, "known: %s all\n", idList(specs))
		os.Exit(2)
	}
	ok := true
	for _, s := range rs {
		ok = run(s, opts, *baseDir, *jsonOut, *doDiff, *update) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one experiment and applies the requested output and pin
// actions. It returns false when a diff found differences.
func run(s *scenario.Spec, opts *bench.Options, pinDir string, jsonOut, doDiff, update bool) bool {
	fig, err := scenario.Run(s, opts)
	if err != nil {
		fatal("%v", err)
	}
	if update {
		if err := scenario.WriteBaseline(pinDir, fig); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: pin written to %s\n", s.ID, scenario.BaselinePath(pinDir, fig.ID, fig.Fidelity))
	}
	ok := true
	if doDiff {
		base, err := scenario.LoadBaseline(pinDir, s.ID, fig.Fidelity)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grape6bench: %v\n", err)
			ok = false
		} else if ps := scenario.Diff(fig, base, nil); len(ps) > 0 {
			fmt.Fprint(os.Stderr, scenario.FormatProblems(s.ID, ps))
			ok = false
		} else {
			points := 0
			for _, fs := range fig.Series {
				points += len(fs.Points)
			}
			fmt.Printf("%s: ok (%d series, %d points identical to the pin)\n", s.ID, len(fig.Series), points)
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
