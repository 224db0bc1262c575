package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 3}, 0.5, 2.0, 3.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
		{[]float64{0.8127, 0.9, 1.1, 0.85, 0.95, 1.02, 0.99}, 0.85, 0.95, 1.02},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := nearestRank([]float64{5, 1, 4, 2, 3}, 0.99); got != 5 {
		t.Errorf("nearestRank p99 = %v, want 5", got)
	}
	if got := nearestRank([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Errorf("nearestRank p50 = %v, want 3", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Trace: 1, Name: "c", Start: 35, End: 45}, // grandchild of root
		{ID: 5, Parent: 1, Trace: 1, Name: "a", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// root's children cover [10,60] and [90,100] of it: 60 of 100.
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 20, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	ls := layers(spans)
	if len(ls) != 4 || ls[0].Name != "a" || ls[0].Spans != 2 || ls[0].BusyNs != 60 || ls[0].SelfNs != 60 {
		t.Errorf("layers = %+v", ls)
	}
}

func TestCheckNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("root", 0)
	child := rec.begin("child", root)
	rec.end(child, map[string]int64{"rows": 1})
	rec.end(root, nil)
	if err := checkNesting(rec.snapshot()); err != nil {
		t.Fatalf("recorded spans do not nest: %v", err)
	}
	for name, bad := range map[string][]span{
		"escapes parent": {{ID: 1, Trace: 1, Start: 10, End: 20}, {ID: 2, Parent: 1, Trace: 1, Start: 15, End: 25}},
		"other trace":    {{ID: 1, Trace: 1, Start: 10, End: 20}, {ID: 2, Parent: 1, Trace: 2, Start: 12, End: 15}},
		"never ended":    {{ID: 1, Trace: 1, Start: 10}},
		"no parent":      {{ID: 2, Parent: 1, Trace: 1, Start: 12, End: 15}},
	} {
		if checkNesting(bad) == nil {
			t.Errorf("%s: checkNesting accepted %+v", name, bad)
		}
	}
	var off *recorder
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	off.end(0, nil)
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"throughput up 10%", shift(10), true, 0.05, "gain"},
		{"latency down 10%", shift(-10), false, 0.05, "gain"},
		{"throughput down 10%", shift(-10), true, 0.05, "regression"},
		{"latency up 10%", shift(10), false, 0.05, "regression"},
		{"within bound", shift(1), false, 0.05, "same"},
		// A parent IQR of 30% is wider than the 10% bound: a 2% shift
		// cannot be told from noise.
		{"spread beyond bound", []float64{72, 104, 130, 98, 70, 126, 100, 131, 74, 103}, true, 0.1, "unresolved"},
	} {
		p := parent
		if c.name == "spread beyond bound" {
			p = []float64{70, 100, 130, 100, 70, 130, 100, 130, 70, 100}
		}
		if got := judge(p, c.change, c.higher, c.bound).outcome; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Every change run better than every parent run resolves a wide
	// spread; it is a gain only when the medians also differ by more than
	// the parent's IQR (60 here).
	wide := []float64{70, 100, 130, 100, 70, 130, 100, 130, 70, 100}
	if got := judge(wide, []float64{131, 132, 133, 134, 135, 136, 137, 138, 139, 140}, true, 0.1).outcome; got != "same" {
		t.Errorf("all-better change within the IQR: verdict %s, want same", got)
	}
	if got := judge(wide, []float64{201, 202, 203, 204, 205, 206, 207, 208, 209, 210}, true, 0.1).outcome; got != "gain" {
		t.Errorf("all-better change beyond the IQR: verdict %s, want gain", got)
	}
	if got := judge(wide, []float64{100.5, 100.6, 131, 100.7, 100.4, 100.2, 100.3, 100.1, 100.8, 100.9}, true, 0.1).outcome; got != "unresolved" {
		t.Errorf("mixed change on a wide parent: verdict %s, want unresolved", got)
	}
}

func TestCompareRefusesCrossHost(t *testing.T) {
	dir := t.TempDir()
	benchJSON := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(benchJSON, []byte(`{"end_to_end":[{"name":"tuples_per_s","unit":"tuples/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	h := host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOARCH: "amd64", CPUModel: "cpu", Kernel: "6.1"}
	write := func(name string, h host, v float64) {
		recs := []record{{Host: h, Workload: "cli-sparse", Metrics: map[string]metric{"tuples_per_s": {Value: v, Unit: "tuples/s"}}}}
		if err := writeRecords(filepath.Join(dir, name), recs); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 101, 99, 100, 102} {
		h.Seed = int64(i + 1)
		write("parent-"+string(rune('a'+i))+".json", h, v)
		h.Commit = "change"
		write("change-"+string(rune('a'+i))+".json", h, v+1)
		h.Commit = ""
	}
	var out, errb bytes.Buffer
	if code := runCompare(filepath.Join(dir, "parent-*.json"), filepath.Join(dir, "change-*.json"), benchJSON, &out, &errb); code != 0 {
		t.Fatalf("same-host compare exited %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("compare output lacks a verdict:\n%s", out.String())
	}
	other := h
	other.NumCPU = 4
	write("change-other.json", other, 101)
	out.Reset()
	errb.Reset()
	if code := runCompare(filepath.Join(dir, "parent-*.json"), filepath.Join(dir, "change-*.json"), benchJSON, &out, &errb); code != 2 {
		t.Fatalf("cross-host compare exited %d, want 2: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "different hosts") {
		t.Errorf("cross-host refusal does not say why: %s", errb.String())
	}
}

func TestPickTenants(t *testing.T) {
	workers := []string{"http://w0", "http://w1"}
	// Names whose last digit is 7 land on w1, everything else on w0.
	owner := func(tenant string) (string, error) {
		if strings.HasSuffix(tenant, "7") {
			return workers[1], nil
		}
		return workers[0], nil
	}
	got, err := pickTenants(owner, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "tenant0" || got[1] != "tenant7" {
		t.Fatalf("pickTenants = %v, want [tenant0 tenant7]", got)
	}
	lonely := func(string) (string, error) { return workers[0], nil }
	if _, err := pickTenants(lonely, workers); err == nil {
		t.Error("pickTenants succeeded although no tenant maps to w1")
	}
	broken := func(string) (string, error) { return "", errors.New("down") }
	if _, err := pickTenants(broken, workers); err == nil {
		t.Error("pickTenants ignored an owner lookup error")
	}
}

// benchmarkJSON is the part of the root BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDefsMatchBenchmarkJSON keeps the metric tables and workload names
// here in step with the ones BENCHMARK.json declares.
func TestDefsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []def) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, names[i])
		}
	}
}

// TestSmoke runs every workload on 2,000 rows with 1 s phases and checks
// that each metric BENCHMARK.json names is reported with its unit and that
// the recorded spans nest. It checks no timing and no failure rate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the servers")
	}
	b := readBenchmarkJSON(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	var out, errb bytes.Buffer
	run([]string{"-smoke"}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errb.String())
	}
	if sum.Attempted < 1 {
		t.Errorf("summary attempted = %d", sum.Attempted)
	}
	for _, w := range b.Workloads {
		for _, m := range append(b.EndToEnd, b.PerLayer...) {
			got, ok := sum.Metrics[w.Name+"/"+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		data, err := os.ReadFile(filepath.Join(".bench_build", "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var tr struct{ Spans []span }
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: trace holds no spans", w.Name)
		}
		if err := checkNesting(tr.Spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
