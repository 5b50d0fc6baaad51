package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := map[string]*result{}
	for _, r := range rs {
		byName[r.Workload] = r
	}
	return byName, nil
}

// compareFiles judges B against A on every (workload, end-to-end metric)
// pair: ok when B's median is no worse than A's by more than the metric's
// bound; otherwise unresolved when the two interquartile ranges overlap (the spread is
// wider than the difference), else worse. More failed operations, or an
// incorrect run, is always worse. It reports whether anything was worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads(1) {
		ra, rb := a[wl.name], b[wl.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.name)
		}
		if !rb.Correct || rb.Failed > ra.Failed {
			worse = true
			fmt.Fprintf(w, "%-20s %-22s %14d %14d %9s %7s  worse (correct=%v)\n", wl.name, "failed", ra.Failed, rb.Failed, "", "", rb.Correct)
		}
		for _, spec := range endToEnd {
			ma, okA := ra.Metrics[spec.name]
			mb, okB := rb.Metrics[spec.name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: %s is missing from one of the files", wl.name, spec.name)
			}
			// change > 0 means B is worse, whichever way the metric points.
			change := (mb.Value - ma.Value) / ma.Value
			if !spec.lowerBetter {
				change = -change
			}
			verdict := "ok"
			if change > spec.bound {
				verdict = "worse"
				if ma.Q1 <= mb.Q3 && mb.Q1 <= ma.Q3 {
					verdict = "unresolved"
				}
			}
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-20s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wl.name, spec.name, ma.Value, mb.Value, 100*change, 100*spec.bound, verdict)
		}
	}
	return worse, nil
}
