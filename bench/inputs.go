package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"

	"fixrule/internal/core"
	"fixrule/internal/dataset"
	"fixrule/internal/loadgen"
	"fixrule/internal/noise"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
	"fixrule/internal/schema"
)

// workload is one named input set and the way the benchmark drives it.
// Every input is generated from the seed; nothing is read from disk.
type workload struct {
	name string
	// rows of hosp are generated with noise at the given rate; Σ is mined
	// (and made consistent) from the first mineRows of them with at most
	// maxRules candidates, then cut to its first sigma rules, so every seed
	// repairs with a Σ of the same size.
	rows, mineRows, maxRules, sigma int
	noise                           float64
	// alg is the algorithm fixrepair runs (cli workloads).
	alg repair.Algorithm
	// serve workloads: open-loop rate, request mix and body shapes, drawn
	// from the first bodyRows rows. proxy selects 1 proxy and 2 workers.
	serve      bool
	proxy      bool
	rps        float64
	mix        []loadgen.MixEntry
	bodyRows   int
	batch      int
	streamRows int
}

// workloads are the benchmark's input sets. Names are stable: results and
// BENCHMARK.json refer to them.
var workloads = []workload{
	// Only ~0.25% of rows need a repair, so CSV scan, Σ-coding and render
	// do almost all the work and the chase almost none.
	{
		name: "cli-sparse",
		rows: 200_000, mineRows: 20_000, maxRules: 500, sigma: 460, noise: 0.10, alg: repair.Linear,
	},
	// ~4,300 rules and 30% noise under cRepair: ~11% of rows match and the
	// chase costs ~50 µs/row, and isConsist_r is nearly all of set-up. This
	// is Fig. 13's regime.
	{
		name: "cli-dense-chase",
		rows: 50_000, mineRows: 50_000, maxRules: 5_000, sigma: 4_200, noise: 0.30, alg: repair.Chase,
	},
	// Small JSON requests: per-request HTTP, JSON, middleware accounting,
	// quality windows and logging dominate; no CSV codec runs.
	{
		name: "serve-json",
		rows: 20_000, mineRows: 20_000, maxRules: 500, sigma: 460, noise: 0.10,
		serve: true, rps: 1500, bodyRows: 5_000, batch: 16,
		mix: []loadgen.MixEntry{{Op: loadgen.OpRepair, Weight: 4}, {Op: loadgen.OpExplain, Weight: 1}},
	},
	// CSV streams through a proxy to two workers: the stream engine,
	// forwarding and the responses dominate. A body stays under one
	// 512-row stream chunk, so a worker has read all of it before it
	// answers; larger bodies hit the proxy's half-duplex body race (see
	// README.md, known failure) and fail about 1 request in 800.
	{
		name: "serve-proxy-csv",
		rows: 20_000, mineRows: 20_000, maxRules: 500, sigma: 460, noise: 0.10,
		serve: true, proxy: true, rps: 220, bodyRows: 20_000, streamRows: 500,
		mix: []loadgen.MixEntry{{Op: loadgen.OpCSV, Weight: 1}},
	},
}

// smoke shrinks a workload to 2,000 rows for the quick self-check run.
func (w workload) smoke() workload {
	w.rows = min(w.rows, 2_000)
	w.mineRows = min(w.mineRows, w.rows)
	w.bodyRows = min(w.bodyRows, w.rows)
	return w
}

// inputs are one workload's generated relation, its Σ and the reference
// repair every program output must equal.
type inputs struct {
	seed  int64
	dirty *schema.Relation
	rs    *core.Ruleset
	rep   *repair.Repairer
	// ref is dirty repaired in-process by lRepair; by the Church–Rosser
	// property every algorithm and entry point must produce exactly it.
	ref *schema.Relation
	// fixChecked rows (every 100th) were also repaired by core.Fix, the
	// string-level reference semantics; fixMismatch of them disagreed.
	fixChecked, fixMismatch int
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	ds := dataset.Hosp(w.rows, seed)
	dirty, _, err := noise.Inject(ds.Rel, noise.Config{
		Rate: w.noise, TypoFraction: 0.5, Attrs: ds.NoiseAttrs, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	rs, err := rulegen.MineConsistent(head(ds.Rel, w.mineRows), head(dirty, w.mineRows), ds.FDs,
		rulegen.Config{MaxRules: w.maxRules, Seed: seed})
	if err != nil {
		return nil, err
	}
	if rs.Len() == 0 {
		return nil, errors.New("mined an empty ruleset")
	}
	if rs.Len() > w.sigma {
		// Consistency is pairwise, so a prefix of a consistent Σ is one.
		if rs, err = core.NewRulesetOf(rs.Rules()[:w.sigma]...); err != nil {
			return nil, err
		}
	}
	in := &inputs{seed: seed, dirty: dirty, rs: rs, rep: repair.NewRepairer(rs)}
	in.ref = in.rep.RepairRelation(dirty, repair.Linear).Relation
	rules := rs.Rules()
	for i := 0; i < dirty.Len(); i += 100 {
		fixed, _, _ := core.Fix(rules, dirty.Row(i))
		in.fixChecked++
		if !fixed.Equal(in.ref.Row(i)) {
			in.fixMismatch++
		}
	}
	return in, nil
}

// head returns the first n rows of r (sharing tuples).
func head(r *schema.Relation, n int) *schema.Relation {
	out := schema.NewRelation(r.Schema())
	for i := 0; i < n && i < r.Len(); i++ {
		out.Append(r.Row(i))
	}
	return out
}

// tuplesAt returns the tuples of r at the given indexes.
func tuplesAt(r *schema.Relation, idx []int) []schema.Tuple {
	out := make([]schema.Tuple, len(idx))
	for i, j := range idx {
		out[i] = r.Row(j)
	}
	return out
}

// diffCSV parses a CSV stream and counts the records that differ from the
// expected header and rows, including missing and extra records.
func diffCSV(r io.Reader, header []string, want []schema.Tuple) (int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	got, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("reading CSV header: %w", err)
	}
	bad := 0
	if !schema.Tuple(got).Equal(header) {
		bad++
	}
	n := 0
	for ; ; n++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("reading CSV record %d: %w", n+1, err)
		}
		if n >= len(want) || !schema.Tuple(rec).Equal(want[n]) {
			bad++
		}
	}
	if n < len(want) {
		bad += len(want) - n
	}
	return bad, nil
}

// writeCSV renders a header and rows as CSV.
func writeCSV(header []string, rs []schema.Tuple) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write(header) // writes to a bytes.Buffer cannot fail
	for _, t := range rs {
		_ = w.Write(t)
	}
	w.Flush()
	return b.Bytes()
}
