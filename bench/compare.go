package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // tolerated worsening, as a share of the parent median
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	outcome      string // gain, regression, unresolved or same
	parentMedian float64
	changeMedian float64
	parentSpread float64 // parent IQR as a share of its median
	wins, pairs  int
}

// judge applies the comparison rule to parent and change runs of one
// metric, paired by position:
//   - gain: the change wins at least 9 of every 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's IQR;
//   - regression: the change's median is worse than the parent's by more
//     than bound times the parent median;
//   - unresolved: neither, but the parent's own spread exceeds the bound,
//     unless every change run beats every parent run;
//   - same: otherwise.
func judge(parent, change []float64, higherBetter bool, bnd float64) verdict {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	v := verdict{parentMedian: median(parent), changeMedian: median(change), parentSpread: iqrShare(parent)}
	q1, _, q3 := quartiles(parent)
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			v.wins++
		}
	}
	gainBy := sign * (v.changeMedian - v.parentMedian)
	allBetter := sign*(extreme(change, -sign)-extreme(parent, sign)) > 0
	switch {
	case v.pairs > 0 && v.wins*10 >= 9*v.pairs && gainBy > q3-q1:
		v.outcome = "gain"
	case -gainBy > bnd*math.Abs(v.parentMedian):
		v.outcome = "regression"
	case v.parentSpread > bnd && !allBetter:
		v.outcome = "unresolved"
	default:
		v.outcome = "same"
	}
	return v
}

// extreme returns the largest value of xs for dir > 0, the smallest for
// dir < 0.
func extreme(xs []float64, dir float64) float64 {
	s := sorted(xs)
	if dir > 0 {
		return s[len(s)-1]
	}
	return s[0]
}

// runCompare compares two sets of -out files and prints one verdict per
// end-to-end metric and workload. It refuses sets from different hosts and
// exits 1 when any metric regressed or is unresolved.
func runCompare(parentGlob, changeGlob, benchPath string, stdout, stderr io.Writer) int {
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	parent, err := loadSet(parentGlob)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := loadSet(changeGlob)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := sameHost(append(append([]record(nil), parent...), change...)); err != nil {
		fmt.Fprintln(stderr, "bench: refusing to compare:", err)
		return 2
	}
	values := func(set []record, wl, metric string) []float64 {
		var out []float64
		for _, r := range set {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var wls []string
	seen := map[string]bool{}
	for _, r := range parent {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	sort.Strings(wls)
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-18s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "parent", "change", "spread", "bound", "wins", "verdict")
	for _, wl := range wls {
		for _, b := range bounds {
			p, c := values(parent, wl, b.Name), values(change, wl, b.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(p, c, b.Better == "higher", b.Bound)
			fmt.Fprintf(stdout, "%-16s %-18s %12.6g %12.6g %7.1f%% %7.1f%% %3d/%-2d  %s\n",
				wl, b.Name, v.parentMedian, v.changeMedian, v.parentSpread*100, b.Bound*100, v.wins, v.pairs, v.outcome)
			if v.outcome == "regression" || v.outcome == "unresolved" {
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// sameHost returns an error naming the first record from another host.
func sameHost(recs []record) error {
	for _, r := range recs[1:] {
		if !r.Host.sameMachine(recs[0].Host) {
			return fmt.Errorf("results come from different hosts: %+v vs %+v", recs[0].Host, r.Host)
		}
	}
	return nil
}

// loadSet reads every -out file matching a glob, or every *.json file in a
// directory.
func loadSet(pattern string) ([]record, error) {
	if fi, err := os.Stat(pattern); err == nil && fi.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	sort.Strings(paths)
	var out []record
	for _, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg.EndToEnd, nil
}
