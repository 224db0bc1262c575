package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fixrule/internal/loadgen"
	"fixrule/internal/repair"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
	"fixrule/internal/server"
)

// variants is how many distinct bodies each request kind rotates through,
// as the load generator builds them.
const variants = 32

// request is one prebuilt request body, the input rows it carries and the
// reference repair its answer must equal.
type request struct {
	op   loadgen.Op
	body []byte
	in   []schema.Tuple
	want []schema.Tuple
}

func (r request) path() string {
	switch r.op {
	case loadgen.OpRepair:
		return "/repair"
	case loadgen.OpExplain:
		return "/explain"
	}
	return "/repair/csv"
}

func (r request) contentType() string {
	if r.op == loadgen.OpCSV {
		return "text/csv"
	}
	return "application/json"
}

// buildRequests makes the body variants of every op in the mix exactly as
// the load generator picks their rows: variant v draws its rows cyclically
// from the workload rows starting at v times the body size.
func buildRequests(w workload, in *inputs) (map[loadgen.Op][]request, error) {
	header := in.dirty.Schema().Attrs()
	n := w.bodyRows
	pick := func(start, size int) []int {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = (start + i) % n
		}
		return idx
	}
	out := make(map[loadgen.Op][]request)
	for _, me := range w.mix {
		for v := 0; v < variants; v++ {
			var idx []int
			var body any
			switch me.Op {
			case loadgen.OpRepair:
				idx = pick(v*w.batch, w.batch)
				body = map[string]any{"tuples": tuplesAt(in.dirty, idx)}
			case loadgen.OpExplain:
				idx = []int{v % n}
				body = map[string]any{"tuple": in.dirty.Row(idx[0])}
			case loadgen.OpCSV:
				idx = pick(v*w.streamRows, w.streamRows)
			default:
				return nil, fmt.Errorf("op %v is not driven by the benchmark", me.Op)
			}
			r := request{op: me.Op, in: tuplesAt(in.dirty, idx), want: tuplesAt(in.ref, idx)}
			if body == nil {
				r.body = writeCSV(header, r.in)
			} else {
				b, err := json.Marshal(body)
				if err != nil {
					return nil, err
				}
				r.body = b
			}
			out[me.Op] = append(out[me.Op], r)
		}
	}
	return out, nil
}

// topology is the set of fixserve processes one serve workload runs.
type topology struct {
	front   *proc    // the process clients talk to
	workers []*proc  // processes that repair; the front one when standalone
	proxy   *proc    // nil when standalone
	tenants []string // one tenant owned by each worker (proxy mode)
}

func (t *topology) procs() []*proc {
	if t.proxy != nil {
		return append([]*proc{t.proxy}, t.workers...)
	}
	return t.workers
}

// stop drains every process, proxy first.
func (t *topology) stop() error {
	var errs []error
	for _, s := range t.procs() {
		errs = append(errs, s.stop())
	}
	return errors.Join(errs...)
}

// startTopology execs the workload's servers with default flags and returns
// once every process is healthy and the first request to each repair
// surface (one per tenant in proxy mode, which compiles its Σ) is answered.
func startTopology(ctx context.Context, e *env, w workload, in *inputs, rulesPath string, n int, client *http.Client) (*topology, error) {
	bin := filepath.Join(e.bin, "fixserve")
	logPath := func(role string) string { return filepath.Join(e.work, fmt.Sprintf("%s-%d.log", role, n)) }
	top := &topology{}
	fail := func(err error) (*topology, error) {
		_ = top.stop() // the setup error is the one worth reporting
		return nil, err
	}
	first := writeCSV(in.dirty.Schema().Attrs(), []schema.Tuple{in.dirty.Row(0)})
	if !w.proxy {
		s, err := startServer(ctx, bin, logPath("fixserve"), "-rules", rulesPath)
		if err != nil {
			return nil, err
		}
		top.front, top.workers = s, []*proc{s}
		if err := waitHealthy(ctx, client, s.addr); err != nil {
			return fail(err)
		}
		if _, err := post(ctx, client, s.addr+"/repair/csv", "text/csv", first); err != nil {
			return fail(err)
		}
		return top, nil
	}
	tenantDir := filepath.Join(e.work, "tenants")
	if err := os.MkdirAll(tenantDir, 0o755); err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < 2; i++ {
		s, err := startServer(ctx, bin, logPath(fmt.Sprintf("worker%d", i)), "-mode", "worker", "-tenant-rules", tenantDir)
		if err != nil {
			return fail(err)
		}
		top.workers = append(top.workers, s)
		peers = append(peers, s.addr)
	}
	px, err := startServer(ctx, bin, logPath("proxy"), "-mode", "proxy", "-peers", strings.Join(peers, ","))
	if err != nil {
		return fail(err)
	}
	top.proxy, top.front = px, px
	for _, s := range top.procs() {
		if err := waitHealthy(ctx, client, s.addr); err != nil {
			return fail(err)
		}
	}
	owner := func(tenant string) (string, error) {
		b, err := get(ctx, client, px.addr+"/shard?tenant="+tenant)
		if err != nil {
			return "", err
		}
		var sr struct {
			Owner string `json:"owner"`
		}
		return sr.Owner, json.Unmarshal(b, &sr)
	}
	if top.tenants, err = pickTenants(owner, peers); err != nil {
		return fail(err)
	}
	rulesDSL, err := os.ReadFile(rulesPath)
	if err != nil {
		return fail(err)
	}
	for _, t := range top.tenants {
		if err := os.WriteFile(filepath.Join(tenantDir, t+".dsl"), rulesDSL, 0o644); err != nil {
			return fail(err)
		}
		if _, err := post(ctx, client, px.addr+"/t/"+t+"/repair/csv", "text/csv", first); err != nil {
			return fail(err)
		}
	}
	return top, nil
}

// pickTenants returns one tenant name per worker, in worker order, each
// owned by that worker according to owner. Ownership depends on the ring,
// and the ring on the workers' ports, so names are found by asking.
func pickTenants(owner func(tenant string) (string, error), workers []string) ([]string, error) {
	found := make(map[string]string, len(workers))
	for i := 0; i < 1000 && len(found) < len(workers); i++ {
		t := fmt.Sprintf("tenant%d", i)
		o, err := owner(t)
		if err != nil {
			return nil, fmt.Errorf("asking the ring who owns %s: %w", t, err)
		}
		if _, ok := found[o]; !ok {
			found[o] = t
		}
	}
	out := make([]string, len(workers))
	for i, w := range workers {
		t, ok := found[w]
		if !ok {
			return nil, fmt.Errorf("no tenant among 1000 names maps to worker %s", w)
		}
		out[i] = t
	}
	return out, nil
}

// runServe drives a fixserve topology: set-up repeated setupRepeats times,
// a warm-up, an open-loop phase at the workload's rate, a closed loop with
// one connection per CPU, and a check of every body variant's answer.
func runServe(ctx context.Context, e *env, w workload, in *inputs) (res *result, err error) {
	res = newResult(w.name)
	rulesPath := filepath.Join(e.work, "rules.dsl")
	if err := ruleio.SaveFile(rulesPath, in.rs); err != nil {
		return nil, err
	}
	reqs, err := buildRequests(w, in)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	client := newClient(conns, nil)

	// Every timed unit below (a set-up, an open-loop sub-phase, a
	// closed-loop window) is preceded by a host probe, its timings are
	// quoted at nominal host speed (probe.go), and each metric is the
	// median over its units.
	var top *topology
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if top != nil {
			if err := top.stop(); err != nil {
				return nil, err
			}
		}
		slow, err := slowdown()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if top, err = startTopology(ctx, e, w, in, rulesPath, i, client); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		setups, rawSetups = append(setups, d/slow), append(rawSetups, d)
		res.attempted += int64(max(len(top.tenants), 1))
	}
	defer func() {
		if top != nil {
			err = errors.Join(err, top.stop())
		}
	}()
	res.m.set("setup_s", median(setups))
	res.raw.set("setup_s", median(rawSetups))

	rowsIn := make([][]string, w.bodyRows)
	for i := range rowsIn {
		rowsIn[i] = in.dirty.Row(i)
	}
	// Most of the time goes to the open loop: its p99 needs the samples.
	warm := e.seconds / 10
	open := e.seconds * 6 / 10
	closed := e.seconds - warm - open
	cfg := loadgen.Config{
		BaseURL: top.front.addr, Mix: w.mix, Header: in.dirty.Schema().Attrs(), Rows: rowsIn,
		Tenants: top.tenants, Batch: w.batch, StreamRows: w.streamRows,
		Conns: conns, Seed: in.seed, Client: client,
		Phases: []loadgen.Phase{{RPS: w.rps, Duration: warm, Warmup: true}},
	}
	if _, err := loadgen.Run(ctx, cfg); err != nil {
		return nil, err
	}

	// Open-loop sub-phases hold over 1,000 requests each, so each
	// sub-phase's p99 has ten samples beyond it.
	subs := max(1, int(open.Seconds()*w.rps)/1100)
	if e.traced {
		cfg.Client = newClient(conns, e.rec)
	}
	before, cpu0, err := snapshot(ctx, client, top)
	if err != nil {
		return nil, err
	}
	rep := &loadgen.Report{}
	var p50s, p99s, rawP50s, rawP99s, slows []float64
	for i := 0; i < subs; i++ {
		slow, err := slowdown()
		if err != nil {
			return nil, err
		}
		cfg.Seed = in.seed + int64(i)
		cfg.Phases = []loadgen.Phase{{RPS: w.rps, Duration: open / time.Duration(subs)}}
		r, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		addReport(rep, r)
		p50, p99 := ms(r.Latency.Quantile(0.50)), ms(r.Latency.Quantile(0.99))
		p50s, p99s = append(p50s, p50/slow), append(p99s, p99/slow)
		rawP50s, rawP99s = append(rawP50s, p50), append(rawP99s, p99)
		slows = append(slows, slow)
	}
	after, cpu1, err := snapshot(ctx, client, top)
	if err != nil {
		return nil, err
	}
	res.attempted += rep.Attempted
	res.fail(int(rep.Errors+rep.Truncated+rep.Dropped+rep.Shed),
		"open loop: %d errors, %d truncated, %d dropped, %d shed of %d", rep.Errors, rep.Truncated, rep.Dropped, rep.Shed, rep.Attempted)
	res.m.set("p50_ms", median(p50s))
	res.m.set("p99_ms", median(p99s))
	res.raw.set("p50_ms", median(rawP50s))
	res.raw.set("p99_ms", median(rawP99s))
	res.note("open loop %.0f req/s for %v: %d requests in %d sub-phases of %d samples (%d beyond p99)",
		w.rps, open, rep.Attempted, subs, rep.Latency.Count()/int64(subs), rep.Latency.Count()/int64(subs)/100)
	res.note("host slowdown against nominal: median %.3f over the open loop", median(slows))

	var serverCPU, proxyCPU time.Duration
	for i, s := range top.procs() {
		if s == top.proxy {
			proxyCPU += cpu1[i] - cpu0[i]
		} else {
			serverCPU += cpu1[i] - cpu0[i]
		}
	}
	cpu := float64(serverCPU+proxyCPU) / 1e3 / float64(rep.Tuples)
	res.m.set("cpu_us_per_tuple", cpu/median(slows))
	res.raw.set("cpu_us_per_tuple", cpu)

	if e.traced {
		closed /= 2 // the other half runs the traced closed loop
	}
	cl, err := closedWindows(ctx, client, top, w, reqs, conns, closed, in.seed)
	if err != nil {
		return nil, err
	}
	res.attempted += cl.attempted
	res.fail(int(cl.failed), "closed loop: %d of %d requests failed", cl.failed, cl.attempted)
	res.m.set("tuples_per_s", cl.tput)
	res.raw.set("tuples_per_s", cl.rawTput)

	if e.traced {
		tcl, err := closedWindows(ctx, newClient(conns, e.rec), top, w, reqs, conns, closed, in.seed)
		if err != nil {
			return nil, err
		}
		res.attempted += tcl.attempted
		res.fail(int(tcl.failed), "traced closed loop: %d of %d requests failed", tcl.failed, tcl.attempted)
		res.m.set("trace.overhead_pct", (cl.rawTput/tcl.rawTput-1)*100)
		serveLayers(res.m, before, after, top, rep, float64(rep.Attempted), serverCPU, proxyCPU)
	}

	// Every variant is sent once more, in sequence, and its answer checked.
	checked, bad, err := verifyAnswers(ctx, client, top, in.dirty.Schema().Attrs(), reqs)
	if err != nil {
		return nil, err
	}
	res.attempted += int64(checked)
	res.mismatch(bad, "%d of %d served answers differ from the reference", bad, checked)

	err = top.stop()
	var rss int64
	for _, s := range top.procs() {
		rss += s.st.maxRSS
	}
	top = nil
	if err != nil {
		return nil, err
	}
	res.m.set("peak_rss_mb", float64(rss)/(1<<20))
	if res.failed > 0 {
		for _, l := range logErrors(e.work, 3) {
			res.note("server log: %s", l)
		}
	}

	if e.traced {
		if err := inProcessLayers(e, w, in, reqs, res.m); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// addReport folds one open-loop sub-phase into the phase's total.
func addReport(dst, r *loadgen.Report) {
	dst.Latency.Merge(&r.Latency)
	dst.Service.Merge(&r.Service)
	dst.Duration += r.Duration
	dst.Attempted += r.Attempted
	dst.OK += r.OK
	dst.Shed += r.Shed
	dst.Errors += r.Errors
	dst.Truncated += r.Truncated
	dst.Dropped += r.Dropped
	dst.Tuples += r.Tuples
	dst.Bytes += r.Bytes
}

// serveLayers derives the server-side layer metrics from /metrics scrapes
// taken around the open-loop phase.
func serveLayers(m metrics, before, after []loadgen.Scrape, top *topology, rep *loadgen.Report, reqN float64, serverCPU, proxyCPU time.Duration) {
	var wb, wa []loadgen.Scrape
	var pb, pa loadgen.Scrape
	for i, s := range top.procs() {
		if s == top.proxy {
			pb, pa = before[i], after[i]
			continue
		}
		wb, wa = append(wb, before[i]), append(wa, after[i])
	}
	b, a := mergeScrapes(wb), mergeScrapes(wa)
	const lat = "fixserve_request_duration_seconds"
	p50, _ := loadgen.HistQuantileDelta(b, a, lat, 0.50)
	p99, _ := loadgen.HistQuantileDelta(b, a, lat, 0.99)
	m.set("server.p50_ms", p50*1e3)
	m.set("server.p99_ms", p99*1e3)
	m.set("server.shed", loadgen.FamilyDelta(b, a, "fixserve_shed_total")+loadgen.FamilyDelta(b, a, "fixserve_tenant_shed_total"))
	m.set("server.errors", loadgen.FamilyDelta(b, a, "fixserve_errors_total"))
	m.set("server.gc_cycles_per_kreq", loadgen.FamilyDelta(b, a, "fixserve_gc_cycles_total")/reqN*1e3)
	m.set("server.gc_pause_us_per_req", loadgen.FamilyDelta(b, a, "fixserve_gc_pause_seconds_total")*1e6/reqN)
	m.set("server.heap_alloc_mb", loadgen.GaugeValue(a, "fixserve_heap_alloc_bytes")/(1<<20))
	m.set("server.cpu_us_per_req", float64(serverCPU)/1e3/reqN)
	m.set("tenant.compiles", loadgen.GaugeValue(a, "fixserve_tenant_compiles_total"))
	m.set("tenant.evictions", loadgen.GaugeValue(a, "fixserve_tenant_evictions_total"))
	svc50 := ms(rep.Service.Quantile(0.50))
	m.set("loadgen.service_p50_ms", svc50)
	m.set("loadgen.service_p99_ms", ms(rep.Service.Quantile(0.99)))
	m.set("loadgen.lag_p99_ms", ms(rep.Latency.Quantile(0.99)-rep.Service.Quantile(0.99)))
	front50 := p50
	if pa != nil {
		const plat = "fixserve_proxy_request_duration_seconds"
		pp50, _ := loadgen.HistQuantileDelta(pb, pa, plat, 0.50)
		pp99, _ := loadgen.HistQuantileDelta(pb, pa, plat, 0.99)
		m.set("proxy.p50_ms", pp50*1e3)
		m.set("proxy.p99_ms", pp99*1e3)
		m.set("proxy.forward_p50_ms", (pp50-p50)*1e3)
		m.set("proxy.cpu_us_per_req", float64(proxyCPU)/1e3/reqN)
		m.set("proxy.upstream_errors", loadgen.FamilyDelta(pb, pa, "fixserve_proxy_upstream_errors_total"))
		front50 = pp50
	}
	m.set("http.net_p50_ms", svc50-front50*1e3)
}

// inProcessLayers times the served path in-process: ServeHTTP on the same
// bodies against RepairTuple on the rows they carry, and for CSV bodies a
// staged replay of the stream path.
func inProcessLayers(e *env, w workload, in *inputs, reqs map[loadgen.Op][]request, m metrics) error {
	rulesPath := filepath.Join(e.work, "rules.dsl")
	parse, check, compile, err := setupStages(rulesPath, setupRepeats)
	if err != nil {
		return err
	}
	m.set("ruleio.parse_ms", ms(parse))
	m.set("consistency.check_ms", ms(check))
	m.set("repair.compile_ms", ms(compile))
	countWork(in.rep, head(in.dirty, w.bodyRows).Rows()).metrics(m)

	h := server.NewWithConfig(in.rep, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	var all []request
	for _, me := range w.mix {
		for i := 0; i < me.Weight; i++ {
			all = append(all, reqs[me.Op]...)
		}
	}
	var handler, direct time.Duration
	n := 0
	for deadline := time.Now().Add(e.seconds / 10); n < len(all) || time.Now().Before(deadline); n++ {
		r := all[n%len(all)]
		root := e.rec.begin("inproc.request", 0)
		req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
		req.Header.Set("Content-Type", r.contentType())
		rr := httptest.NewRecorder()
		id := e.rec.begin("server.handler", root)
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		handler += time.Since(t0)
		e.rec.end(id, nil)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("in-process %s answered %d: %s", r.path(), rr.Code, rr.Body.String())
		}
		id = e.rec.begin("repair.tuples", root)
		t0 = time.Now()
		for _, t := range r.in {
			in.rep.RepairTuple(t, repair.Linear)
		}
		direct += time.Since(t0)
		e.rec.end(id, map[string]int64{"rows": int64(len(r.in))})
		e.rec.end(root, nil)
	}
	m.set("server.handler_us_per_req", float64(handler)/1e3/float64(n))
	m.set("server.overhead_us_per_req", float64(handler-direct)/1e3/float64(n))

	csvReqs := reqs[loadgen.OpCSV]
	if len(csvReqs) == 0 {
		return nil
	}
	rules := in.rs.Rules()
	for _, r := range csvReqs {
		root := e.rec.begin("csv.replay", 0)
		if _, err := replay(e.rec, root, in.rep, rules, repair.Linear, true, r.body); err != nil {
			return err
		}
		e.rec.end(root, map[string]int64{"rows": int64(len(r.in))})
	}
	stageMetrics(m, layers(e.rec.snapshot()), repair.Linear)
	return nil
}

// logErrors returns up to n error lines from the server logs in dir, so a
// failed request can be explained after the work directory is gone.
func logErrors(dir string, n int) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.log")) // the pattern is well-formed
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		for _, l := range strings.Split(string(b), "\n") {
			if len(out) < n && (strings.Contains(l, "level=ERROR") || strings.Contains(l, "superfluous")) {
				out = append(out, filepath.Base(p)+": "+l)
			}
		}
	}
	return out
}

// snapshot scrapes /metrics and reads the CPU time of every process.
func snapshot(ctx context.Context, client *http.Client, top *topology) ([]loadgen.Scrape, []time.Duration, error) {
	var scrapes []loadgen.Scrape
	var cpus []time.Duration
	for _, s := range top.procs() {
		sc, err := loadgen.ScrapeMetrics(ctx, client, s.addr+"/metrics")
		if err != nil {
			return nil, nil, err
		}
		c, err := s.cpu()
		if err != nil {
			return nil, nil, err
		}
		scrapes, cpus = append(scrapes, sc), append(cpus, c)
	}
	return scrapes, cpus, nil
}

// mergeScrapes folds several processes' scrapes into one, keeping their
// series apart with a proc label so histogram buckets still add up.
func mergeScrapes(ss []loadgen.Scrape) loadgen.Scrape {
	out := make(loadgen.Scrape)
	for i, s := range ss {
		for k, v := range s {
			name, labels, ok := strings.Cut(k, "{")
			if ok {
				k = fmt.Sprintf(`%s{proc="%d",%s`, name, i, labels)
			} else {
				k = fmt.Sprintf(`%s{proc="%d"}`, name, i)
			}
			out[k] = v
		}
	}
	return out
}

type loopStats struct{ tuples, attempted, failed int64 }

// windowStats are a closed loop's totals and its median window throughput,
// quoted at nominal host speed and as measured.
type windowStats struct {
	loopStats
	tput, rawTput float64
}

// closedWindows runs the closed loop for d as back-to-back windows of about
// a second, each after a host probe.
func closedWindows(ctx context.Context, client *http.Client, top *topology, w workload, reqs map[loadgen.Op][]request, conns int, d time.Duration, seed int64) (windowStats, error) {
	n := max(1, int(d/time.Second))
	win := d / time.Duration(n)
	var ws windowStats
	var tputs, raws []float64
	for i := 0; i < n; i++ {
		slow, err := slowdown()
		if err != nil {
			return ws, err
		}
		c := closedLoop(ctx, client, top, w, reqs, conns, win, seed+int64(i))
		ws.tuples += c.tuples
		ws.attempted += c.attempted
		ws.failed += c.failed
		r := float64(c.tuples) / win.Seconds()
		tputs, raws = append(tputs, r*slow), append(raws, r)
	}
	ws.tput, ws.rawTput = median(tputs), median(raws)
	return ws, nil
}

// closedLoop runs conns clients, each sending its next request as soon as
// the previous answer is read in full, for d.
func closedLoop(ctx context.Context, client *http.Client, top *topology, w workload, reqs map[loadgen.Op][]request, conns int, d time.Duration, seed int64) loopStats {
	var tuples, attempted, failed atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var buf bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := pickRequest(rng, w.mix, reqs)
				url := top.front.addr + tenantPrefix(rng, top.tenants) + r.path()
				attempted.Add(1)
				buf.Reset()
				if err := do(ctx, client, http.MethodPost, url, r.contentType(), r.body, &buf); err != nil || !complete(r, buf.Bytes()) {
					failed.Add(1)
					continue
				}
				tuples.Add(int64(len(r.in)))
			}
		}(c)
	}
	wg.Wait()
	return loopStats{tuples.Load(), attempted.Load(), failed.Load()}
}

func pickRequest(rng *rand.Rand, mix []loadgen.MixEntry, reqs map[loadgen.Op][]request) request {
	total := 0
	for _, me := range mix {
		total += me.Weight
	}
	k := rng.Intn(total)
	op := mix[len(mix)-1].Op
	for _, me := range mix {
		if k -= me.Weight; k < 0 {
			op = me.Op
			break
		}
	}
	vs := reqs[op]
	return vs[rng.Intn(len(vs))]
}

func tenantPrefix(rng *rand.Rand, tenants []string) string {
	if len(tenants) == 0 {
		return ""
	}
	return "/t/" + tenants[rng.Intn(len(tenants))]
}

// complete reports whether a 200 answer carries every row it should: a CSV
// stream cut short, or ending in an error envelope, is not complete.
func complete(r request, body []byte) bool {
	if r.op != loadgen.OpCSV {
		return len(body) > 0
	}
	return bytes.Count(body, []byte{'\n'}) == len(r.in)+1 && !bytes.Contains(body[max(0, len(body)-512):], []byte(`{"error"`))
}

// verifyAnswers sends every variant once, to every tenant, and counts the
// answers that differ from the reference.
func verifyAnswers(ctx context.Context, client *http.Client, top *topology, header []string, reqs map[loadgen.Op][]request) (checked, bad int, err error) {
	tenants := top.tenants
	if len(tenants) == 0 {
		tenants = []string{""}
	}
	for _, vs := range reqs {
		for _, r := range vs {
			for _, t := range tenants {
				prefix := ""
				if t != "" {
					prefix = "/t/" + t
				}
				checked++
				body, err := post(ctx, client, top.front.addr+prefix+r.path(), r.contentType(), r.body)
				if err != nil {
					bad++
					continue
				}
				n, err := diffAnswer(r, header, body)
				if err != nil {
					return 0, 0, err
				}
				if n > 0 {
					bad++
				}
			}
		}
	}
	return checked, bad, nil
}

// diffAnswer counts the rows of one answer that differ from the reference.
func diffAnswer(r request, header []string, body []byte) (int, error) {
	switch r.op {
	case loadgen.OpCSV:
		return diffCSV(bytes.NewReader(body), header, r.want)
	case loadgen.OpExplain:
		var ex struct {
			Output []string `json:"output"`
		}
		if err := json.Unmarshal(body, &ex); err != nil {
			return 0, fmt.Errorf("decoding /explain answer: %w", err)
		}
		if !schema.Tuple(ex.Output).Equal(r.want[0]) {
			return 1, nil
		}
		return 0, nil
	}
	var rp struct {
		Repaired []struct {
			Tuple []string `json:"tuple"`
		} `json:"repaired"`
	}
	if err := json.Unmarshal(body, &rp); err != nil {
		return 0, fmt.Errorf("decoding /repair answer: %w", err)
	}
	bad := max(0, len(r.want)-len(rp.Repaired))
	for i, t := range rp.Repaired {
		if i >= len(r.want) || !schema.Tuple(t.Tuple).Equal(r.want[i]) {
			bad++
		}
	}
	return bad, nil
}

// newClient returns a client pooling conns connections; with a recorder,
// every request is recorded as http.request with http.headers and
// http.body children.
func newClient(conns int, rec *recorder) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	if rec != nil {
		rt = &spanTransport{rt: rt, rec: rec}
	}
	return &http.Client{Transport: rt}
}

type spanTransport struct {
	rt  http.RoundTripper
	rec *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	root := t.rec.begin("http.request", 0)
	id := t.rec.begin("http.headers", root)
	resp, err := t.rt.RoundTrip(req)
	t.rec.end(id, nil)
	if err != nil {
		t.rec.end(root, map[string]int64{"errors": 1})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, root: root, id: t.rec.begin("http.body", root)}
	return resp, nil
}

// spanBody ends the body and request spans when the body is drained or
// closed, whichever comes first.
type spanBody struct {
	io.ReadCloser
	rec      *recorder
	root, id int
	n        int64
	once     sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.rec.end(b.id, map[string]int64{"bytes": b.n})
		b.rec.end(b.root, nil)
	})
}

func waitHealthy(ctx context.Context, client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := get(ctx, client, base+"/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never became healthy: %w", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	var buf bytes.Buffer
	err := do(ctx, client, http.MethodGet, url, "", nil, &buf)
	return buf.Bytes(), err
}

func post(ctx context.Context, client *http.Client, url, ctype string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	err := do(ctx, client, http.MethodPost, url, ctype, body, &buf)
	return buf.Bytes(), err
}

// do sends one request, reads the whole answer into buf, and fails on any
// status but 200.
func do(ctx context.Context, client *http.Client, method, url, ctype string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}
