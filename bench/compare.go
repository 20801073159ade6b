package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// benchmarkPath is BENCHMARK.json as seen from the bench directory, where
// the program runs.
const benchmarkPath = "../BENCHMARK.json"

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening returns by what share of a the value b is worse than a, in the
// metric's direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCompare prints, per workload and end-to-end metric, both documents'
// values, the relative difference and the bound, and returns non-zero if
// any metric worsened from a to b by more than its bound or any workload's
// fail ratio rose.
func runCompare(stdout io.Writer, pathA, pathB string) int {
	var bm benchmarkFile
	var a, b document
	for path, v := range map[string]any{benchmarkPath: &bm, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	bad := 0
	fmt.Fprintf(stdout, "%-20s %-12s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "worse by", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name].EndToEnd, b.Workloads[name].EndToEnd
		if _, ok := b.Workloads[name]; !ok {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", name, pathB)
			bad++
			continue
		}
		for _, m := range bm.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			w := worsening(va, vb, m.Better)
			verdict := ""
			if w > m.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-20s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				name, m.Name, va, vb, 100*w, 100*m.Bound, verdict)
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := ""
		if fb > fa {
			verdict = "  ROSE"
			bad++
		}
		fmt.Fprintf(stdout, "%-20s %-12s %14.6g %14.6g%s\n", name, "fail_ratio", fa, fb, verdict)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparisons outside their bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "all end-to-end metrics within their bounds")
	return 0
}
