package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fixrule/internal/repair"
	"fixrule/internal/ruleio"
)

// runCLI drives fixrepair -stream over the workload's relation: header-only
// runs for set-up cost, one warm pass, then timed passes until the budget
// is spent. Every output file is checked against the reference repair.
func runCLI(ctx context.Context, e *env, w workload, in *inputs) (*result, error) {
	res := newResult(w.name)
	rulesPath := filepath.Join(e.work, "rules.dsl")
	dataPath := filepath.Join(e.work, "data.csv")
	headerPath := filepath.Join(e.work, "header.csv")
	outPath := filepath.Join(e.work, "out.csv")
	if err := ruleio.SaveFile(rulesPath, in.rs); err != nil {
		return nil, err
	}
	header := in.dirty.Schema().Attrs()
	data := writeCSV(header, in.dirty.Rows())
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(headerPath, writeCSV(header, nil), 0o644); err != nil {
		return nil, err
	}
	args := func(input string) []string {
		a := []string{"-stream", "-rules", rulesPath, "-data", input, "-out", outPath}
		if w.alg == repair.Chase {
			a = append(a, "-alg", "chase")
		}
		return a
	}
	bin := filepath.Join(e.bin, "fixrepair")
	nRows := float64(in.dirty.Len())

	var setups, passes []timed
	for i := 0; i < setupRepeats; i++ {
		t, err := timedPass(ctx, bin, args(headerPath)...)
		res.attempted++
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	// The in-process set-up stages run right after the header-only runs,
	// under the same host conditions, so fixrepair.start_ms compares like
	// with like.
	var parse, check, compile time.Duration
	if e.traced {
		var err error
		if parse, check, compile, err = setupStages(rulesPath, setupRepeats); err != nil {
			return nil, err
		}
	}

	// The warm pass fills the page cache and is checked record for record;
	// later passes must reproduce its bytes exactly.
	if _, err := execPass(ctx, bin, args(dataPath)...); err != nil {
		return nil, err
	}
	res.attempted++
	want, bad, err := checkOutput(outPath, header, in)
	if err != nil {
		return nil, err
	}
	res.mismatch(bad, "warm pass output differs from the reference in %d records", bad)

	budget := e.seconds
	if e.traced {
		budget /= 2 // the other half replays the stages in-process
	}
	var peak int64
	for n, deadline := 0, time.Now().Add(budget); n < e.minPasses || time.Now().Before(deadline); n++ {
		id := e.rec.begin("cli.pass", 0)
		t, err := timedPass(ctx, bin, args(dataPath)...)
		e.rec.end(id, map[string]int64{"rows": int64(nRows)})
		res.attempted++
		if err != nil {
			res.fail(1, "%v", err)
			continue
		}
		got, err := hashFile(outPath)
		if err != nil {
			return nil, err
		}
		if got != want {
			_, bad, err := checkOutput(outPath, header, in)
			if err != nil {
				return nil, err
			}
			res.mismatch(max(bad, 1), "pass output differs from the reference in %d records", bad)
		}
		passes = append(passes, t)
		peak = max(peak, t.maxRSS)
	}
	cliTimings(res.m, setups, passes, nRows, true)
	cliTimings(res.raw, setups, passes, nRows, false)
	for _, m := range []metrics{res.m, res.raw} {
		m.set("peak_rss_mb", float64(peak)/(1<<20))
	}
	res.note("%d passes of %d rows, %d rules; p99_ms is the nearest-rank p99 of the pass walls", len(passes), int(nRows), in.rs.Len())
	var slows []float64
	for _, t := range append(setups, passes...) {
		slows = append(slows, t.slow)
	}
	res.note("host slowdown against nominal: median %.3f over %d probes", median(slows), len(slows))

	if !e.traced {
		return res, nil
	}
	var cpuWall []float64
	for _, t := range passes {
		cpuWall = append(cpuWall, float64(t.cpu)/float64(t.wall))
	}
	res.m.set("fixrepair.cpu_over_wall", median(cpuWall))
	res.m.set("ruleio.parse_ms", ms(parse))
	res.m.set("consistency.check_ms", ms(check))
	res.m.set("repair.compile_ms", ms(compile))
	res.m.set("fixrepair.start_ms", res.raw["setup_s"]*1e3-ms(parse+check+compile))
	countWork(in.rep, in.dirty.Rows()).metrics(res.m)

	// Alternate untraced and traced replays over the same bytes; the
	// traced ones give the stage costs, the pair gives the tracing cost.
	var plain, traced []float64
	rules := in.rs.Rules()
	for deadline := time.Now().Add(budget); len(traced) < 2 || time.Now().Before(deadline); {
		t0 := time.Now()
		if _, err := replay(nil, 0, in.rep, rules, w.alg, true, data); err != nil {
			return nil, err
		}
		plain = append(plain, float64(time.Since(t0)))
		root := e.rec.begin("cli.replay", 0)
		t0 = time.Now()
		out, err := replay(e.rec, root, in.rep, rules, w.alg, true, data)
		if err != nil {
			return nil, err
		}
		traced = append(traced, float64(time.Since(t0)))
		e.rec.end(root, map[string]int64{"rows": int64(nRows)})
		if sha256.Sum256(out) != want {
			res.mismatch(1, "staged replay output differs from fixrepair's")
		}
	}
	ls := layers(e.rec.snapshot())
	stageMetrics(res.m, ls, w.alg)
	res.m.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	staged := res.m["store.scan_ns_per_row"] + res.m["repair.encode_ns_per_row"] +
		res.m["repair.chase_ns_per_row"] + res.m["store.render_ns_per_row"]
	res.m.set("fixrepair.unattributed_ns_per_row", res.raw["cpu_us_per_tuple"]*1e3-staged)
	return res, nil
}

// timed is one fixrepair run and the host slowdown probed just before it.
type timed struct {
	passStat
	slow float64
}

func timedPass(ctx context.Context, bin string, args ...string) (timed, error) {
	slow, err := slowdown()
	if err != nil {
		return timed{}, err
	}
	st, err := execPass(ctx, bin, args...)
	return timed{st, slow}, err
}

// cliTimings derives the end-to-end timings from the header-only set-up
// runs and the passes. With correct set, each run's times are divided by
// the slowdown probed before it; the slowest pass, whose own probe is as
// noisy as any, by the run's median slowdown.
func cliTimings(m metrics, setups, passes []timed, rows float64, correct bool) {
	var slows []float64
	for _, t := range passes {
		slows = append(slows, t.slow)
	}
	adj := func(slow float64, d time.Duration) float64 {
		if correct {
			return float64(d) / slow
		}
		return float64(d)
	}
	var sw, sc []float64
	for _, t := range setups {
		sw = append(sw, adj(t.slow, t.wall))
		sc = append(sc, adj(t.slow, t.cpu))
	}
	setup, setupCPU := median(sw), median(sc)
	var walls, tput, cpu, rawWalls []float64
	for _, t := range passes {
		w := adj(t.slow, t.wall)
		walls = append(walls, w/1e6)
		rawWalls = append(rawWalls, ms(t.wall))
		tput = append(tput, rows/((w-setup)/1e9))
		cpu = append(cpu, (adj(t.slow, t.cpu)-setupCPU)/1e3/rows)
	}
	m.set("setup_s", setup/1e9)
	m.set("tuples_per_s", median(tput))
	m.set("p50_ms", median(walls))
	m.set("p99_ms", adj(median(slows), time.Duration(nearestRank(rawWalls, 0.99)*1e6))/1e6)
	m.set("cpu_us_per_tuple", median(cpu))
}

// checkOutput compares a fixrepair output file with the reference record
// for record and returns the file's hash with the mismatch count.
func checkOutput(path string, header []string, in *inputs) ([32]byte, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, 0, err
	}
	bad, err := diffCSV(bytes.NewReader(b), header, in.ref.Rows())
	if err != nil {
		return [32]byte{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	return sha256.Sum256(b), bad, nil
}

func hashFile(path string) ([32]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
