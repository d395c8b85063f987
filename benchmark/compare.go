package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// verdict judges the new record's stat against the old one's under the
// metric's bound. The values decide a regression: worse by more than the
// bound. An improvement needs every new repetition to read better than
// every old one. Between the two, a row whose repetitions spread wider than
// the bound cannot be told from a regression of that size and is
// unresolved, not unchanged.
func verdict(d decl, old, cur stat) string {
	sign := 1.0 // orient every comparison so that larger is worse
	if d.better == "higher" {
		sign = -1
	}
	if sign*(cur.Value-old.Value)/old.Value > d.bound {
		return vRegressed
	}
	oldBest := min(sign*old.Min, sign*old.Max)
	curWorst := max(sign*cur.Min, sign*cur.Max)
	if curWorst < oldBest {
		return vImproved
	}
	spread := func(s stat) float64 { return (s.Max - s.Min) / s.Value }
	if spread(old) > d.bound || spread(cur) > d.bound {
		return vUnresolved
	}
	return vUnchanged
}

func readRecord(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// records and returns 1 if any row regressed or a workload failed more
// often than before.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cur, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if old.Seed != cur.Seed || old.Quick != cur.Quick || old.Host.GOMAXPROCS != cur.Host.GOMAXPROCS {
		fmt.Fprintf(w, "warning: records differ in seed, size or GOMAXPROCS (%d/%v/%d vs %d/%v/%d)\n",
			old.Seed, old.Quick, old.Host.GOMAXPROCS, cur.Seed, cur.Quick, cur.Host.GOMAXPROCS)
	}
	if old.Host.HostNoisy || cur.Host.HostNoisy {
		fmt.Fprintln(w, "warning: a record was taken while the host's speed moved (host_noisy)")
	}
	oldBy := map[string]*workloadRecord{}
	for i := range old.Workloads {
		oldBy[old.Workloads[i].Name] = &old.Workloads[i]
	}
	bad := false
	fmt.Fprintf(w, "%-11s %-13s %12s %25s %12s %25s %7s %6s  %s\n",
		"workload", "metric", "old", "old range", "new", "new range", "change", "bound", "verdict")
	for i := range cur.Workloads {
		c := &cur.Workloads[i]
		o := oldBy[c.Name]
		if o == nil {
			fmt.Fprintf(w, "%-11s only in %s\n", c.Name, newPath)
			continue
		}
		for _, d := range endToEnd {
			os, cs := o.EndToEnd[d.name], c.EndToEnd[d.name]
			v := verdict(d, os, cs)
			if v == vRegressed {
				bad = true
			}
			fmt.Fprintf(w, "%-11s %-13s %12.6g %25s %12.6g %25s %+6.1f%% %5.0f%%  %s\n",
				c.Name, d.name, os.Value, fmt.Sprintf("[%.6g, %.6g]", os.Min, os.Max),
				cs.Value, fmt.Sprintf("[%.6g, %.6g]", cs.Min, cs.Max),
				100*(cs.Value-os.Value)/os.Value, 100*d.bound, v)
		}
		v := vUnchanged
		if c.FailedFrac > o.FailedFrac {
			v, bad = vRegressed, true
		}
		fmt.Fprintf(w, "%-11s %-13s %12.6g %25s %12.6g %25s %7s %6s  %s\n",
			c.Name, "failed_frac", o.FailedFrac, "", c.FailedFrac, "", "", "0", v)
		for _, diff := range diffExact(c.Exact, o.Exact) {
			fmt.Fprintf(w, "%-11s exact output changed: %s\n", c.Name, diff)
		}
	}
	if bad {
		return 1
	}
	return 0
}
