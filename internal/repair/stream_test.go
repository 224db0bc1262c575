package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fixrule/internal/schema"
)

// skewedRelation builds a relation whose repairs are pathologically
// unbalanced: the first 5% of rows carry ~90% of the rule applications
// (each needs the two-step φ1→φ4 cascade), the rest are mostly clean with
// a sprinkle of one-step repairs. The old one-stripe-per-worker scheduler
// serialised the hot prefix onto a single worker; the chunked scheduler
// must spread it.
func skewedRelation(n int) *schema.Relation {
	rel := schema.NewRelation(travel())
	rng := rand.New(rand.NewSource(42))
	hot := n / 20
	for i := 0; i < n; i++ {
		switch {
		case i < hot:
			// Two repairs per row: capital Shanghai→Beijing, then city
			// Hongkong→Shanghai via the completed φ4 evidence.
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Shanghai", "Hongkong", "ICDE"})
		case rng.Intn(50) == 0:
			// Occasional single repair outside the hot prefix.
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "Canada", "Toronto", "Toronto", "VLDB"})
		case rng.Intn(7) == 0:
			// Values with CSV-hostile bytes, all outside Σ's vocabulary:
			// they must round-trip byte-identically through quoting.
			rel.Append(schema.Tuple{`q,"uoted`, "Mars", "a,b", "line\nbreak", "SIGMOD"})
		default:
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	return rel
}

func relationCSV(tb testing.TB, rel *schema.Relation) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := schema.WriteCSV(&buf, rel); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// workerCounts is the satellite matrix: the degenerate single worker, odd
// counts that leave remainder chunks, and oversubscription.
func workerCounts() []int {
	p := runtime.GOMAXPROCS(0)
	return []int{1, 2, 3, p, 2 * p}
}

// referenceStream is what StreamCSV must reproduce: the input (UTF-8 BOM
// stripped) parsed by encoding/csv, repaired by RepairRelation — which
// TestCompiledRepairMatchesReference pins to core.Fix — and rendered back
// by encoding/csv, with the stats RepairRelation's Result implies.
func referenceStream(tb testing.TB, r *Repairer, in []byte, alg Algorithm) ([]byte, *StreamStats) {
	tb.Helper()
	rel, err := schema.ReadCSV(bytes.NewReader(bytes.TrimPrefix(in, []byte("\xEF\xBB\xBF"))), r.Ruleset().Schema())
	if err != nil {
		tb.Fatal(err)
	}
	res := r.RepairRelation(rel, alg)
	var out bytes.Buffer
	if err := schema.WriteCSV(&out, res.Relation); err != nil {
		tb.Fatal(err)
	}
	repaired := 0
	for i, c := range res.Changed {
		if i == 0 || res.Changed[i-1].Row != c.Row {
			repaired++
		}
	}
	return out.Bytes(), &StreamStats{
		Rows: rel.Len(), Repaired: repaired, Steps: res.Steps,
		OOV: res.OOV, OOVByAttr: res.OOVByAttr, PerRule: res.PerRule,
	}
}

// streamMatchesReference is the golden property: for both algorithms, the
// given worker counts and every chunk size, StreamCSV's bytes and
// StreamStats equal the reference exactly, including on CSV-hostile values
// and the prefilter's skip paths.
func streamMatchesReference(t *testing.T, workerCounts []int) {
	t.Helper()
	r := NewRepairer(paperRuleset())
	in := relationCSV(t, skewedRelation(4000))
	for _, alg := range []Algorithm{Linear, Chase} {
		want, wantStats := referenceStream(t, r, in, alg)
		if wantStats.Repaired == 0 || wantStats.Steps <= wantStats.Repaired || wantStats.OOV == 0 {
			t.Fatalf("workload not skewed and adversarial as intended: %+v", wantStats)
		}
		for _, workers := range workerCounts {
			for _, chunkRows := range []int{0, 64, 1} {
				var out bytes.Buffer
				stats, err := r.StreamCSV(context.Background(), bytes.NewReader(in), &out, alg,
					ParallelOptions{Workers: workers, ChunkRows: chunkRows})
				if err != nil {
					t.Fatalf("%v workers=%d chunk=%d: %v", alg, workers, chunkRows, err)
				}
				if !bytes.Equal(want, out.Bytes()) {
					t.Errorf("%v workers=%d chunk=%d: output bytes differ from the reference", alg, workers, chunkRows)
				}
				if !reflect.DeepEqual(wantStats, stats) {
					t.Errorf("%v workers=%d chunk=%d: stats = %+v, want %+v", alg, workers, chunkRows, stats, wantStats)
				}
			}
		}
	}
}

// TestStreamCSVColumnarByteIdentical: the single-worker chunk loop
// reproduces the reference.
func TestStreamCSVColumnarByteIdentical(t *testing.T) {
	streamMatchesReference(t, []int{1})
}

// TestStreamCSVParallelByteIdentical: the pipelined path reproduces the
// reference at odd worker counts that leave remainder chunks and under
// oversubscription.
func TestStreamCSVParallelByteIdentical(t *testing.T) {
	streamMatchesReference(t, workerCounts()[1:])
}

// TestRepairRelationParallelSkewed: the chunked scheduler reproduces the
// sequential Result exactly on the skewed relation for every worker count,
// including Changed order and PerRule counts.
func TestRepairRelationParallelSkewed(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(4000)
	seq := r.RepairRelation(rel, Linear)
	for _, workers := range workerCounts() {
		par := r.RepairRelationParallel(rel, Linear, workers)
		if len(schema.Diff(seq.Relation, par.Relation)) != 0 {
			t.Fatalf("workers=%d: repaired relation differs", workers)
		}
		if par.Steps != seq.Steps || par.OOV != seq.OOV {
			t.Errorf("workers=%d: steps/oov = %d/%d, want %d/%d", workers, par.Steps, par.OOV, seq.Steps, seq.OOV)
		}
		if !reflect.DeepEqual(par.Changed, seq.Changed) {
			t.Errorf("workers=%d: Changed order differs from sequential", workers)
		}
		if !reflect.DeepEqual(par.PerRule, seq.PerRule) {
			t.Errorf("workers=%d: PerRule = %v, want %v", workers, par.PerRule, seq.PerRule)
		}
	}
}

// TestParallelSharedRepairerRace drives StreamCSV and
// RepairRelationParallel concurrently against one shared Repairer — the
// scratch pool, dictionaries and inverted lists are shared state — and
// checks every interleaving still produces the sequential answer. Run
// under -race in CI.
func TestParallelSharedRepairerRace(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(2000)
	in := relationCSV(t, rel)
	want, wantStats := referenceStream(t, r, in, Linear)
	seqRes := r.RepairRelation(rel, Linear)

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(workerCounts()))
	for _, workers := range workerCounts() {
		workers := workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			stats, err := r.StreamCSV(context.Background(), bytes.NewReader(in), &out, Linear,
				ParallelOptions{Workers: workers})
			switch {
			case err != nil:
				errc <- fmt.Errorf("stream workers=%d: %w", workers, err)
			case !bytes.Equal(want, out.Bytes()):
				errc <- fmt.Errorf("stream workers=%d: bytes differ", workers)
			case !reflect.DeepEqual(wantStats, stats):
				errc <- fmt.Errorf("stream workers=%d: stats %+v != %+v", workers, stats, wantStats)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.RepairRelationParallel(rel, Linear, workers)
			switch {
			case len(schema.Diff(seqRes.Relation, res.Relation)) != 0:
				errc <- fmt.Errorf("relation workers=%d: rows differ", workers)
			case !reflect.DeepEqual(seqRes.PerRule, res.PerRule):
				errc <- fmt.Errorf("relation workers=%d: PerRule %v != %v", workers, res.PerRule, seqRes.PerRule)
			case res.Steps != seqRes.Steps:
				errc <- fmt.Errorf("relation workers=%d: steps %d != %d", workers, res.Steps, seqRes.Steps)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestStreamCSVErrors: StreamCSV rejects what the reference rejects —
// a missing header, a wrong header, a short row.
func TestStreamCSVErrors(t *testing.T) {
	r := NewRepairer(paperRuleset())
	for i, in := range []string{
		"",                                    // no header
		"name,country,WRONG,city,conf\n",      // bad header
		"name,country,capital,city,conf\na\n", // short row
	} {
		if _, err := r.StreamCSV(context.Background(), strings.NewReader(in), io.Discard, Linear, ParallelOptions{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestStreamCSVColumnarErrors: the errors name their cause — the header
// field, the 1-based row — a BOM input is accepted like the reference
// accepts it, and a dead context stops a multi-chunk stream with an
// errors.Is-compatible cause, at one worker and at several.
func TestStreamCSVColumnarErrors(t *testing.T) {
	r := NewRepairer(paperRuleset())
	ctx := context.Background()

	t.Run("bad header", func(t *testing.T) {
		in := "wrong,country,capital,city,conf\n"
		_, err := r.StreamCSV(ctx, strings.NewReader(in), io.Discard, Linear, ParallelOptions{})
		if err == nil || !strings.Contains(err.Error(), `field 0 is "wrong"`) {
			t.Fatalf("err = %v, want header field error", err)
		}
	})
	t.Run("bom", func(t *testing.T) {
		in := []byte("\xEF\xBB\xBFname,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n")
		want, _ := referenceStream(t, r, in, Linear)
		var got bytes.Buffer
		if _, err := r.StreamCSV(ctx, bytes.NewReader(in), &got, Linear, ParallelOptions{}); err != nil {
			t.Fatalf("BOM input rejected: %v", err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Error("BOM input repaired differently from the reference")
		}
	})
	t.Run("row error", func(t *testing.T) {
		in := "name,country,capital,city,conf\n" +
			"Ian,China,Shanghai,Hongkong,ICDE\n" +
			"broken,row\n"
		for _, workers := range []int{1, 2} {
			_, err := r.StreamCSV(ctx, strings.NewReader(in), io.Discard, Linear, ParallelOptions{Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "stream row 2") {
				t.Fatalf("workers=%d: err = %v, want row 2 stream error", workers, err)
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		in := relationCSV(t, skewedRelation(2000))
		dead, cancel := context.WithCancel(ctx)
		cancel()
		for _, workers := range []int{1, 4} {
			_, err := r.StreamCSV(dead, bytes.NewReader(in), io.Discard, Linear, ParallelOptions{Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		}
	})
}

// TestStreamCSVContextCancelled: a context cancelled before the stream
// starts wins even when the whole input fits in one chunk.
func TestStreamCSVContextCancelled(t *testing.T) {
	r := NewRepairer(paperRuleset())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	var out strings.Builder
	_, err := r.StreamCSV(ctx, strings.NewReader(in), &out, Linear, ParallelOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamCSVContextDeadline: an expired deadline reports
// context.DeadlineExceeded so callers can map it to a timeout status.
func TestStreamCSVContextDeadline(t *testing.T) {
	r := NewRepairer(paperRuleset())
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	for _, workers := range []int{1, 4} {
		_, err := r.StreamCSV(expired, strings.NewReader(in), io.Discard, Linear, ParallelOptions{Workers: workers})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
	}
}

// TestStreamCSVContextBackground: a live context — the background one, a
// cancellable one nobody cancels, a distant deadline — never fires, and the
// stream completes.
func TestStreamCSVContextBackground(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	distant, cancelDistant := context.WithTimeout(context.Background(), time.Hour)
	defer cancelDistant()
	for i, ctx := range []context.Context{context.Background(), cancellable, distant} {
		var out strings.Builder
		stats, err := r.StreamCSV(ctx, strings.NewReader(in), &out, Linear, ParallelOptions{})
		if err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
		if stats.Rows != 1 || stats.Repaired != 1 {
			t.Errorf("context %d: stats = %+v", i, stats)
		}
		if !strings.Contains(out.String(), "Ian,China,Beijing,Shanghai,ICDE") {
			t.Errorf("context %d: output:\n%s", i, out.String())
		}
	}
}

// cancellingReader cancels its context once more than after bytes have
// been read through it.
type cancellingReader struct {
	r      io.Reader
	after  int
	n      int
	cancel context.CancelFunc
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	if c.n > c.after {
		c.cancel()
	}
	return n, err
}

// TestStreamCSVParallelCancelled: a context cancelled mid-stream stops the
// reader between chunks, long before the input is exhausted, at one worker
// and at several.
func TestStreamCSVParallelCancelled(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := relationCSV(t, skewedRelation(40000))
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cr := &cancellingReader{r: bytes.NewReader(in), after: len(in) / 20, cancel: cancel}
		_, err := r.StreamCSV(ctx, cr, io.Discard, Linear, ParallelOptions{Workers: workers, ChunkRows: 64})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if cr.n >= len(in) {
			t.Errorf("workers=%d: read all %d bytes despite the cancellation", workers, len(in))
		}
	}
}

// TestStreamCSVParallelRowError: a malformed row deep in the stream is
// reported with its global 1-based row number, whichever chunk and worker
// it lands on.
func TestStreamCSVParallelRowError(t *testing.T) {
	r := NewRepairer(paperRuleset())
	var in bytes.Buffer
	in.WriteString("name,country,capital,city,conf\n")
	for i := 1; i < 1000; i++ {
		fmt.Fprintf(&in, "p%d,China,Shanghai,Hongkong,ICDE\n", i)
	}
	in.WriteString("broken,row\n")
	for i := 1001; i <= 1200; i++ {
		fmt.Fprintf(&in, "p%d,China,Beijing,Beijing,SIGMOD\n", i)
	}
	for _, workers := range []int{1, 2, 4} {
		_, err := r.StreamCSV(context.Background(), bytes.NewReader(in.Bytes()), io.Discard, Linear,
			ParallelOptions{Workers: workers, ChunkRows: 64})
		if err == nil || !strings.Contains(err.Error(), "stream row 1000:") {
			t.Fatalf("workers=%d: err = %v, want row 1000 stream error", workers, err)
		}
	}
}

// TestStreamCSVStripsBOM: a UTF-8 BOM must not glue onto the first header
// field (regression: the header check used to fail with a confusing
// `field 0 is "name"`). Output carries no BOM, so BOM and BOM-less inputs
// repair to identical bytes and stats at any worker count.
func TestStreamCSVStripsBOM(t *testing.T) {
	r := NewRepairer(paperRuleset())
	plain := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	bom := "\xEF\xBB\xBF" + plain
	for _, workers := range []int{1, 2} {
		opts := ParallelOptions{Workers: workers}
		var wantOut, gotOut bytes.Buffer
		wantStats, err := r.StreamCSV(context.Background(), strings.NewReader(plain), &wantOut, Linear, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotStats, err := r.StreamCSV(context.Background(), strings.NewReader(bom), &gotOut, Linear, opts)
		if err != nil {
			t.Fatalf("workers=%d: BOM input rejected: %v", workers, err)
		}
		if !bytes.Equal(wantOut.Bytes(), gotOut.Bytes()) || !reflect.DeepEqual(wantStats, gotStats) {
			t.Errorf("workers=%d: BOM input repaired differently from plain input", workers)
		}
	}
	// A BOM alone must not mask a genuinely wrong header.
	bad := "\xEF\xBB\xBFwrong,country,capital,city,conf\n"
	if _, err := r.StreamCSV(context.Background(), strings.NewReader(bad), io.Discard, Linear, ParallelOptions{}); err == nil ||
		!strings.Contains(err.Error(), `field 0 is "wrong"`) {
		t.Errorf("bad header after BOM: err = %v", err)
	}
}

// lowCardRelation exercises the steady-state batch loops: a handful of
// distinct values per column, a stable mix of repaired and clean rows.
func lowCardRelation(n int) *schema.Relation {
	rel := schema.NewRelation(travel())
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0:
			rel.Append(schema.Tuple{"pat", "China", "Shanghai", "Hongkong", "ICDE"})
		case 1:
			rel.Append(schema.Tuple{"lee", "Canada", "Toronto", "Toronto", "VLDB"})
		default:
			rel.Append(schema.Tuple{"kim", "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	return rel
}

// streamAllocsPerRow is the stream's allocation budget over rel: parsing,
// coding, repair and rendering run out of reused chunk buffers, so the
// whole stream costs a fixed setup plus (almost) nothing per row.
func streamAllocsPerRow(t *testing.T, rel *schema.Relation) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector adds allocations")
	}
	r := NewRepairer(paperRuleset())
	rows := rel.Len()
	in := relationCSV(t, rel)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := r.StreamCSV(context.Background(), bytes.NewReader(in), io.Discard, Linear,
			ParallelOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > float64(rows)*0.05 {
		t.Errorf("StreamCSV allocations = %.0f for %d rows (%.3f/row), want ≤ 0.05/row", avg, rows, avg/float64(rows))
	}
}

// TestStreamCSVAllocsPerRow: a distinct name in every row, CSV-hostile
// quoting and a hot repaired prefix still allocate nothing per row — no
// value is interned or copied into a string.
func TestStreamCSVAllocsPerRow(t *testing.T) {
	streamAllocsPerRow(t, skewedRelation(20000))
}

// TestStreamCSVColumnarAllocsPerRow: the steady state — a handful of
// distinct values, a stable mix of repaired and clean rows.
func TestStreamCSVColumnarAllocsPerRow(t *testing.T) {
	streamAllocsPerRow(t, lowCardRelation(20000))
}

// TestStreamCSVColumnarPrefilterSkip proves the prefilter actually skips: a
// stream entirely outside Σ's vocabulary repairs nothing, counts its OOV
// cells, and echoes the input bytes untouched.
func TestStreamCSVColumnarPrefilterSkip(t *testing.T) {
	r := NewRepairer(paperRuleset())
	var in bytes.Buffer
	in.WriteString("name,country,capital,city,conf\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&in, "p%d,Nowhere,None,None,NONE\n", i)
	}
	var out bytes.Buffer
	stats, err := r.StreamCSV(context.Background(), bytes.NewReader(in.Bytes()), &out, Linear,
		ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 0 || stats.Steps != 0 {
		t.Fatalf("clean stream repaired: %+v", stats)
	}
	if stats.OOV == 0 {
		t.Fatal("expected OOV cells on out-of-vocabulary stream")
	}
	if !bytes.Equal(in.Bytes(), out.Bytes()) {
		t.Error("clean stream not echoed byte-identically")
	}
}

// TestRecorderDisabledZeroAlloc is the guard for the recorder's core
// constraint: with a nil recorder the stream's per-chunk work (coding,
// per-attribute OOV accounting, the coded chase and span assembly)
// allocates nothing once its buffers are warm.
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	r := NewRepairer(paperRuleset())
	cr, _, err := r.openChunkCSV(bytes.NewReader(relationCSV(t, skewedRelation(600))))
	if err != nil {
		t.Fatal(err)
	}
	var u rawUnit
	if _, err := cr.ReadRawChunk(&u.chunk, 512); err != nil {
		t.Fatal(err)
	}
	rs := &rawScratch{sc: r.getScratch()}
	defer r.putScratch(rs.sc)
	var accs [1]streamAcc
	acc := &accs[0].streamAccData
	acc.perRule = make([]int32, len(r.rules))
	acc.oovBy = make([]int64, r.c.arity)
	for _, alg := range []Algorithm{Chase, Linear} {
		run := func() {
			r.repairRawChunk(&u.chunk, rs, alg, acc, nil, 0)
			r.buildSpans(&u, rs.reps)
		}
		run() // warm: sizes the repair list and the render buffer
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: %v allocs per chunk with recorder disabled, want 0", alg, allocs)
		}
	}
	if acc.repaired == 0 {
		t.Fatal("chunk repaired nothing; the guard would measure only the skip path")
	}
}
