package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// setupStages times the in-process set-up layers a repair process runs
// before its first row: parse the rule file, check Σ's consistency
// (isConsist_r), compile the repairer. Each is the median of n repetitions.
func setupStages(rulesPath string, n int) (parse, check, compile time.Duration, err error) {
	var ps, cs, ks []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		rs, err := ruleio.LoadFile(rulesPath)
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		if conf := consistency.IsConsistent(rs, consistency.ByRule); conf != nil {
			return 0, 0, 0, fmt.Errorf("rule file is inconsistent: %v", conf)
		}
		t2 := time.Now()
		repair.NewRepairer(rs)
		t3 := time.Now()
		ps = append(ps, float64(t1.Sub(t0)))
		cs = append(cs, float64(t2.Sub(t1)))
		ks = append(ks, float64(t3.Sub(t2)))
	}
	return time.Duration(median(ps)), time.Duration(median(cs)), time.Duration(median(ks)), nil
}

// replayChunk is the row count of one staged-replay chunk, the chunk size
// of the program's own stream pipeline.
const replayChunk = 512

// replay repairs a CSV stream stage by stage through the layers' public
// functions — chunk scan, Σ-coding, the chase, render — with one span per
// stage per chunk under parent, and returns the rendered CSV. With alt set
// it also runs the other algorithm on the same coded rows ("repair.alt"),
// so the two chases can be compared on identical input. A nil recorder
// replays without spans, for the tracing-overhead baseline.
func replay(rec *recorder, parent int, rep *repair.Repairer, rules []*core.Rule, alg repair.Algorithm, alt bool, data []byte) ([]byte, error) {
	arity := len(rules[0].Schema().Attrs())
	cr, header, err := store.NewCSVChunkReader(bytes.NewReader(data), arity)
	if err != nil {
		return nil, err
	}
	other := repair.Chase
	if alg == repair.Chase {
		other = repair.Linear
	}
	var (
		out     = renderRow(nil, header)
		chunk   store.RawChunk
		tuples  = make([]schema.Tuple, replayChunk)
		codes   = make([][]uint32, replayChunk)
		scratch = make([]uint32, arity)
		applied = make([][]int32, replayChunk)
	)
	for i := range tuples {
		tuples[i] = make(schema.Tuple, arity)
	}
	for {
		id := rec.begin("store.scan", parent)
		n, err := cr.ReadRawChunk(&chunk, replayChunk)
		rec.end(id, map[string]int64{"rows": int64(n), "bytes": int64(len(chunk.Buf))})
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}

		// One string per chunk, sliced into cells, as a row reader hands
		// out one string per record.
		id = rec.begin("repair.encode", parent)
		buf, start := string(chunk.Buf), int32(0)
		for i := 0; i < n; i++ {
			t := tuples[i]
			for a := range t {
				end := chunk.Ends[i*arity+a]
				t[a] = buf[start:end]
				start = end + 1
			}
			codes[i] = rep.EncodeTuple(t, codes[i])
		}
		rec.end(id, map[string]int64{"rows": int64(n)})

		if alt {
			id = rec.begin("repair.alt", parent)
			for i := 0; i < n; i++ {
				copy(scratch, codes[i])
				applied[i] = rep.RepairEncoded(scratch, other, applied[i])
			}
			rec.end(id, map[string]int64{"rows": int64(n)})
		}

		id = rec.begin("repair.chase", parent)
		var matched, steps int64
		for i := 0; i < n; i++ {
			applied[i] = rep.RepairEncoded(codes[i], alg, applied[i])
			if len(applied[i]) > 0 {
				matched++
				steps += int64(len(applied[i]))
			}
		}
		rec.end(id, map[string]int64{"rows": int64(n), "matched": matched, "steps": steps})

		id = rec.begin("store.render", parent)
		before := len(out)
		for i := 0; i < n; i++ {
			t := tuples[i]
			for _, pos := range applied[i] {
				r := rules[pos]
				t[r.TargetIndex()] = r.Fact()
			}
			out = renderRow(out, t)
		}
		rec.end(id, map[string]int64{"rows": int64(n), "bytes": int64(len(out) - before)})
	}
}

func renderRow(dst []byte, t []string) []byte {
	for a, v := range t {
		if a > 0 {
			dst = append(dst, ',')
		}
		dst = store.AppendCSVValue(dst, v)
	}
	return append(dst, '\n')
}

// workCounts are exact per-row counts over a relation: rows a rule
// matched, rule applications, and Σ-relevant cells outside Σ's vocabulary.
type workCounts struct {
	rows, matched, steps, oov int64
}

func countWork(rep *repair.Repairer, ts []schema.Tuple) workCounts {
	wc := workCounts{rows: int64(len(ts))}
	for _, t := range ts {
		_, st := rep.RepairTuple(t, repair.Linear)
		if len(st) > 0 {
			wc.matched++
			wc.steps += int64(len(st))
		}
		wc.oov += int64(rep.OOVCells(t))
	}
	return wc
}

func (wc workCounts) metrics(m metrics) {
	m.set("repair.matched_row_ratio", float64(wc.matched)/float64(wc.rows))
	m.set("repair.steps_per_row", float64(wc.steps)/float64(wc.rows))
	m.set("repair.oov_cells_per_row", float64(wc.oov)/float64(wc.rows))
}

// stageMetrics turns a traced replay's spans into the per-row stage costs.
func stageMetrics(m metrics, ls []layerTime, alg repair.Algorithm) {
	scan, sc := busy(ls, "store.scan")
	enc, _ := busy(ls, "repair.encode")
	chase, cc := busy(ls, "repair.chase")
	alt, _ := busy(ls, "repair.alt")
	render, _ := busy(ls, "store.render")
	rowsN := float64(cc["rows"])
	if rowsN == 0 {
		return
	}
	m.set("store.scan_ns_per_row", float64(scan)/rowsN)
	m.set("store.scan_mb_per_s", float64(sc["bytes"])/1e6/scan.Seconds())
	m.set("repair.encode_ns_per_row", float64(enc)/rowsN)
	m.set("repair.chase_ns_per_row", float64(chase)/rowsN)
	m.set("store.render_ns_per_row", float64(render)/rowsN)
	if alt > 0 {
		c, l := chase, alt
		if alg == repair.Linear {
			c, l = alt, chase
		}
		m.set("repair.crepair_over_lrepair", float64(c)/float64(l))
	}
}
