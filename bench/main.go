// Command bench is the repository's end-to-end benchmark. It builds
// fixrepair and fixserve from the checkout, generates every input from a
// seed, drives the real binaries from outside (os/exec for the CLI, HTTP
// load for the servers), checks every output against an in-process
// reference repair, and prints one metric per line plus a JSON summary.
//
// Run it from the repository root through the wrapper, which keeps every
// build product under .bench_build/:
//
//	bash bench/run.sh --workload cli-sparse --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload serve-json --trace 1   # per-layer metrics
//	bash bench/run.sh --out result.json                 # all four workloads
//	bash bench/run.sh --compare 'parent/*.json' 'change/*.json'
//
// See bench/README.md for the workloads, the metrics and how to read the
// trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// def names one reported metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from untraced runs.
var endToEnd = []def{
	{"setup_s", "s"},
	{"tuples_per_s", "tuples/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_us_per_tuple", "us"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named by the module they measure.
// A layer a workload never reaches reports 0.
var perLayer = []def{
	{"ruleio.parse_ms", "ms"},
	{"consistency.check_ms", "ms"},
	{"repair.compile_ms", "ms"},
	{"fixrepair.start_ms", "ms"},
	{"repair.chase_ns_per_row", "ns"},
	{"repair.crepair_over_lrepair", "ratio"},
	{"repair.encode_ns_per_row", "ns"},
	{"store.scan_ns_per_row", "ns"},
	{"store.scan_mb_per_s", "MB/s"},
	{"store.render_ns_per_row", "ns"},
	{"repair.matched_row_ratio", "ratio"},
	{"repair.steps_per_row", "count"},
	{"repair.oov_cells_per_row", "count"},
	{"fixrepair.cpu_over_wall", "ratio"},
	{"fixrepair.unattributed_ns_per_row", "ns"},
	{"server.overhead_us_per_req", "us"},
	{"server.handler_us_per_req", "us"},
	{"server.gc_cycles_per_kreq", "count"},
	{"server.gc_pause_us_per_req", "us"},
	{"server.heap_alloc_mb", "MiB"},
	{"server.cpu_us_per_req", "us"},
	{"server.p50_ms", "ms"},
	{"server.p99_ms", "ms"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"proxy.p50_ms", "ms"},
	{"proxy.p99_ms", "ms"},
	{"proxy.forward_p50_ms", "ms"},
	{"proxy.cpu_us_per_req", "us"},
	{"proxy.upstream_errors", "count"},
	{"tenant.compiles", "count"},
	{"tenant.evictions", "count"},
	{"loadgen.service_p50_ms", "ms"},
	{"loadgen.service_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"http.net_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// setupRepeats is how many times a run sets its workload up from exec;
// setup_s is the median.
const setupRepeats = 5

// metrics holds measured values by name; units come from the def tables.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	workload          string
	attempted, failed int64
	mismatched        int64 // failed operations whose output was wrong
	failures          []string
	notes             []string
	m                 metrics
	raw               metrics // end-to-end timings before the host-drift correction
}

func newResult(name string) *result { return &result{workload: name, m: metrics{}, raw: metrics{}} }

// fail counts n failed operations (none when n is 0) and keeps the reason.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// mismatch counts n outputs that differ from the reference; they fail the
// run as a whole.
func (r *result) mismatch(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.mismatched += int64(n)
	r.fail(n, "output check: "+format, args...)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report returns the named metrics with their units. A metric no stage
// measured reads 0.
func (r *result) report(defs []def) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := r.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// rawReport returns the end-to-end timings as measured, before the
// host-drift correction.
func (r *result) rawReport() map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		if v, ok := r.raw[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out
}

// env is the run-wide context every workload runner shares.
type env struct {
	root      string // checkout root
	work      string // this run's work directory
	bin       string // directory holding the built fixrepair and fixserve
	seconds   time.Duration
	traced    bool
	smoke     bool
	minPasses int
	rec       *recorder // nil unless traced
	logf      func(format string, args ...any)
}

// record is one workload's result as written by -out and read by -compare.
type record struct {
	Host      host              `json:"host"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Raw       map[string]metric `json:"raw_metrics,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
	out := fs.String("out", "", "also write the results, host-stamped, as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result sets given as two file globs: PARENT CHANGE")
	smoke := fs.Bool("smoke", false, "2,000-row inputs and 1 s phases: check every metric is emitted and spans nest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two file globs: PARENT CHANGE")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), filepath.Join(".", "BENCHMARK.json"), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{
		root: root, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, smoke: *smoke, minPasses: 3,
		logf: func(format string, args ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", args...) },
	}
	if e.smoke {
		e.seconds, e.traced, e.minPasses = time.Second, true, 1
	}
	recs, err := runAll(ctx, e, selected, *seed, *traceOut, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeRecords(*out, recs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, r := range recs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(recs) > 1 {
				k = r.Workload + "/" + k
			}
			sum.Metrics[k] = v
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runAll builds the binaries, then runs each selected workload in its own
// work directory and prints its metrics as "workload metric value unit".
func runAll(ctx context.Context, e *env, selected []workload, seed int64, traceOut string, stdout io.Writer) ([]record, error) {
	build := filepath.Join(e.root, ".bench_build")
	e.bin = filepath.Join(build, "bin")
	if err := buildBinaries(ctx, e.root, e.bin); err != nil {
		return nil, err
	}
	h := stampHost(seed)
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s arch=%s kernel=%s cpu=%q seed=%d commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.Kernel, h.CPUModel, h.Seed, h.Commit)
	var recs []record
	for _, w := range selected {
		if e.smoke {
			w = w.smoke()
		}
		work, err := os.MkdirTemp(build, "work-")
		if err != nil {
			return nil, err
		}
		e.work = work
		e.rec = nil
		if e.traced {
			e.rec = newRecorder()
		}
		res, err := runWorkload(ctx, e, w, seed)
		if err == nil && e.traced {
			path := traceOut
			if path == "" || len(selected) > 1 {
				path = filepath.Join(build, "trace-"+w.name+".json")
			}
			err = finishTrace(res, e.rec, path, stdout)
		}
		os.RemoveAll(work)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		defs := endToEnd
		switch {
		case e.smoke:
			defs = append(append([]def(nil), endToEnd...), perLayer...)
		case e.traced:
			defs = perLayer
		}
		rep := res.report(defs)
		printMetrics(stdout, w.name, rep)
		if raw := res.rawReport(); !e.traced && len(raw) > 0 {
			printMetrics(stdout, w.name+" raw", raw)
		}
		for _, n := range res.notes {
			fmt.Fprintf(stdout, "%s note: %s\n", w.name, n)
		}
		for _, f := range res.failures {
			fmt.Fprintf(stdout, "%s FAILED: %s\n", w.name, f)
		}
		fmt.Fprintf(stdout, "%s err_rate %.6f fraction (%d of %d operations failed)\n",
			w.name, float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
		recs = append(recs, record{
			Host: h, Workload: w.name, Traced: e.traced, Seconds: int(e.seconds / time.Second),
			Correct: res.mismatched == 0, Attempted: res.attempted, Failed: res.failed,
			Failures: res.failures, Metrics: rep, Raw: res.rawReport(),
		})
	}
	return recs, nil
}

func runWorkload(ctx context.Context, e *env, w workload, seed int64) (*result, error) {
	t0 := time.Now()
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	e.logf("%s: %d rows, %d rules generated in %v", w.name, in.dirty.Len(), in.rs.Len(), time.Since(t0).Round(time.Millisecond))
	var res *result
	if w.serve {
		res, err = runServe(ctx, e, w, in)
	} else {
		res, err = runCLI(ctx, e, w, in)
	}
	if err != nil {
		return nil, err
	}
	res.mismatch(in.fixMismatch, "reference repair disagrees with core.Fix on %d of %d sampled rows", in.fixMismatch, in.fixChecked)
	return res, nil
}

// finishTrace writes the spans, prints each layer's busy and self time,
// and checks that the spans nest.
func finishTrace(res *result, rec *recorder, path string, stdout io.Writer) error {
	spans := rec.snapshot()
	if err := checkNesting(spans); err != nil {
		return err
	}
	if err := writeTrace(path, spans); err != nil {
		return err
	}
	for _, l := range layers(spans) {
		fmt.Fprintf(stdout, "%s layer %-14s spans %7d  busy %10.3f ms  self %10.3f ms\n",
			res.workload, l.Name, l.Spans, float64(l.BusyNs)/1e6, float64(l.SelfNs)/1e6)
	}
	fmt.Fprintf(stdout, "%s trace %s (%d spans)\n", res.workload, path, len(spans))
	return nil
}

func printMetrics(w io.Writer, workload string, rep map[string]metric) {
	names := make([]string, 0, len(rep))
	for n := range rep {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n, rep[n].Value, rep[n].Unit)
	}
}

// buildBinaries compiles the checkout's fixrepair and fixserve into dir.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/fixrepair", "./cmd/fixserve")
	cmd.Dir = root
	cmd.SysProcAttr = childAttr()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building fixrepair and fixserve: %v\n%s", err, out)
	}
	return nil
}

func writeRecords(path string, recs []record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords loads the records of one -out file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return recs, nil
}
