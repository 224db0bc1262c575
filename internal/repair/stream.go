package repair

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"fixrule/internal/store"
	"fixrule/internal/trace"
)

// StreamStats summarises a streaming repair run.
type StreamStats struct {
	// Rows is the number of tuples processed.
	Rows int
	// Repaired is the number of tuples changed by at least one rule.
	Repaired int
	// Steps is the total number of rule applications.
	Steps int
	// OOV is the number of Σ-relevant cells whose input values were outside
	// the ruleset's vocabulary (counted before repair).
	OOV int
	// OOVByAttr breaks OOV down by attribute name (nil when OOV is 0).
	OOVByAttr map[string]int
	// PerRule counts corrections per rule name.
	PerRule map[string]int
}

// defaultStreamChunkRows is the CSV pipeline's work unit: large enough that
// channel handoffs amortise to nothing against the per-row repair cost,
// small enough that the unit pool — and so peak memory — stays a few MB
// even with wide rows.
const defaultStreamChunkRows = 512

// streamWriteBufSize sizes the output buffer of the streaming paths;
// repaired chunks are rendered into worker-local buffers and the ordered
// writer just copies bytes, so a generous buffer batches syscalls.
const streamWriteBufSize = 1 << 18

// gaugeAdd is the hook the pipeline reports occupancy through; *obs.Gauge
// satisfies it without this package importing the metrics layer.
type gaugeAdd interface{ Add(int64) }

// ParallelOptions tunes a streaming repair.
type ParallelOptions struct {
	// Workers is the repair worker count; <= 0 selects GOMAXPROCS, and 1
	// runs a fully sequential loop with no goroutines.
	Workers int
	// ChunkRows is the number of rows per pipeline work unit; <= 0 selects
	// the entry point's default.
	ChunkRows int
	// QueueDepth, when non-nil, receives +1 when a chunk is queued for
	// repair and -1 when a worker picks it up (e.g. an *obs.Gauge).
	QueueDepth gaugeAdd
	// BusyWorkers, when non-nil, receives +1 when a worker starts repairing
	// a chunk and -1 when it finishes.
	BusyWorkers gaugeAdd
	// Recorder, when non-nil, captures per-tuple chase traces of repaired
	// rows. Row numbers are global input positions, so the recorded traces
	// are identical at any worker count.
	Recorder *ChaseRecorder
}

// withDefaults resolves the worker count and, when unset, the chunk size.
func (o ParallelOptions) withDefaults(chunkRows int) ParallelOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = chunkRows
	}
	return o
}

// streamAccData is one worker's private share of the final StreamStats.
// perRule is indexed by rule position and folded into the name-keyed map
// once at the end, so workers never touch a map or a lock.
type streamAccData struct {
	rows     int
	chunks   int
	repaired int
	steps    int
	oov      int
	oovBy    []int64
	perRule  []int32
}

// streamAcc pads the accumulator so workers writing adjacent slice entries
// never share a cache line.
//
//fix:padded
type streamAcc struct {
	streamAccData
	_ [64]byte
}

// statsFromAccs folds per-worker accumulators into the final StreamStats;
// every statistic is an order-independent sum, so the result is identical
// at any worker count.
func (rp *Repairer) statsFromAccs(accs []streamAcc, rows int) *StreamStats {
	stats := &StreamStats{Rows: rows, PerRule: make(map[string]int)}
	oovBy := make([]int64, rp.c.arity)
	total := make([]int64, len(rp.rules))
	for wi := range accs {
		stats.Repaired += accs[wi].repaired
		stats.Steps += accs[wi].steps
		stats.OOV += accs[wi].oov
		for a, v := range accs[wi].oovBy {
			oovBy[a] += v
		}
		for pos, n := range accs[wi].perRule {
			total[pos] += int64(n)
		}
	}
	for pos, n := range total {
		if n > 0 {
			stats.PerRule[rp.rules[pos].Name()] = int(n)
		}
	}
	stats.OOVByAttr = rp.oovByAttr(oovBy)
	return stats
}

// chunkUnit is one pipeline work unit: a chunk plus its rendered output,
// reused through the fixed pool. spans is what the writer emits, in order;
// each span may view out or the chunk's own buffers (both stay untouched
// until the unit is recycled, which happens only after the emit).
type chunkUnit[C any] struct {
	seq     int64
	rowBase int
	chunk   C
	out     []byte
	spans   [][]byte
}

// streamChunks is the engine-agnostic pipeline: a bounded unit pool, a
// reader goroutine, repair+render workers, and a re-sequencing writer on
// the caller's goroutine. process repairs and renders one unit into u.out
// using worker-local state S; newState/release bracket each worker's
// scratch lifetime. Workers == 1 short-circuits to a fully sequential loop
// with no goroutines.
func streamChunks[C, S any](ctx context.Context, rp *Repairer, opts ParallelOptions,
	read func(*C) (int, error), emit func([]byte) error,
	newState func() S, release func(S),
	process func(S, *chunkUnit[C], *streamAccData),
) (*StreamStats, error) {
	if opts.Workers == 1 {
		return streamChunksSeq(ctx, rp, opts, read, emit, newState, release, process)
	}
	workers := opts.Workers

	psp := trace.SpanFromContext(ctx).StartChild("repair.stream.parallel")
	psp.SetAttr(trace.Int("workers", workers), trace.Int("chunk_rows", opts.ChunkRows))

	// The fixed unit pool bounds memory: every unit is always in exactly
	// one place (recycle, work, a worker, done, or the writer's pending
	// window), so poolSize units of ChunkRows rows is the high-water mark.
	poolSize := 2*workers + 2
	recycle := make(chan *chunkUnit[C], poolSize)
	for i := 0; i < poolSize; i++ {
		recycle <- &chunkUnit[C]{}
	}
	work := make(chan *chunkUnit[C], poolSize)
	done := make(chan *chunkUnit[C], poolSize)

	// readErr and rowsRead are written by the reader goroutine only; the
	// close(work) → workers drain → close(done) → writer-loop-exit chain
	// orders those writes before the caller reads them below.
	var readErr error
	rowsRead := 0
	go func() {
		defer close(work)
		seq := int64(0)
		for {
			if err := ctx.Err(); err != nil {
				readErr = fmt.Errorf("repair: stream cancelled at row %d: %w", rowsRead, err)
				return
			}
			u := <-recycle
			n, err := read(&u.chunk)
			if err == io.EOF {
				recycle <- u
				return
			}
			if err != nil {
				readErr = fmt.Errorf("repair: stream row %d: %w", rowsRead+1, err)
				recycle <- u
				return
			}
			u.seq = seq
			seq++
			u.rowBase = rowsRead
			rowsRead += n
			if opts.QueueDepth != nil {
				opts.QueueDepth.Add(1)
			}
			work <- u
		}
	}()

	accs := make([]streamAcc, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(acc *streamAccData) {
			defer wg.Done()
			acc.perRule = make([]int32, len(rp.rules))
			acc.oovBy = make([]int64, rp.c.arity)
			wsp := psp.StartChild("repair.worker")
			ws := newState()
			for u := range work {
				if opts.QueueDepth != nil {
					opts.QueueDepth.Add(-1)
				}
				if opts.BusyWorkers != nil {
					opts.BusyWorkers.Add(1)
				}
				process(ws, u, acc)
				if opts.BusyWorkers != nil {
					opts.BusyWorkers.Add(-1)
				}
				done <- u
			}
			release(ws)
			wsp.SetAttr(
				trace.Int("chunks", acc.chunks),
				trace.Int("rows", acc.rows),
				trace.Int("repaired", acc.repaired),
				trace.Int("steps", acc.steps),
			)
			wsp.End()
		}(&accs[wi].streamAccData)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Re-sequencing writer, on the caller's goroutine. After the first
	// write error the loop keeps draining (workers must never block on a
	// full done channel) but discards bytes.
	var writeErr error
	pending := make(map[int64]*chunkUnit[C], poolSize)
	next := int64(0)
	for u := range done {
		pending[u.seq] = u
		//fix:allow ctxpoll: drains the bounded pending map and exits when the next unit is absent; the reader already polls ctx per chunk
		for {
			c, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if writeErr == nil {
				for _, s := range c.spans {
					if writeErr = emit(s); writeErr != nil {
						break
					}
				}
			}
			recycle <- c // cap(recycle) == poolSize: never blocks
		}
	}

	if readErr != nil {
		psp.SetError(readErr.Error())
		psp.End()
		return nil, readErr
	}
	if writeErr != nil {
		psp.SetError(writeErr.Error())
		psp.End()
		return nil, writeErr
	}
	stats := rp.statsFromAccs(accs, rowsRead)
	psp.SetAttr(
		trace.Int("rows", stats.Rows),
		trace.Int("repaired", stats.Repaired),
		trace.Int("steps", stats.Steps),
		trace.Int("oov", stats.OOV),
	)
	psp.End()
	return stats, nil
}

// streamChunksSeq is the single-threaded pipeline: no goroutines, no
// channels — read, repair, render, emit.
func streamChunksSeq[C, S any](ctx context.Context, rp *Repairer, opts ParallelOptions,
	read func(*C) (int, error), emit func([]byte) error,
	newState func() S, release func(S),
	process func(S, *chunkUnit[C], *streamAccData),
) (*StreamStats, error) {
	accs := make([]streamAcc, 1)
	acc := &accs[0].streamAccData
	acc.perRule = make([]int32, len(rp.rules))
	acc.oovBy = make([]int64, rp.c.arity)
	ws := newState()
	defer release(ws)
	var u chunkUnit[C]
	rowBase := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("repair: stream cancelled at row %d: %w", rowBase, err)
		}
		n, err := read(&u.chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("repair: stream row %d: %w", rowBase+1, err)
		}
		u.rowBase = rowBase
		rowBase += n
		process(ws, &u, acc)
		for _, s := range u.spans {
			if err := emit(s); err != nil {
				return nil, err
			}
		}
	}
	return rp.statsFromAccs(accs, rowBase), nil
}

// streamSpan opens a child span under the context's active span (nil — and
// free — when the request is untraced or unsampled) and returns the
// closer that stamps outcome attributes.
func streamSpan(ctx context.Context, name string) func(stats *StreamStats, err error) {
	sp := trace.SpanFromContext(ctx).StartChild(name)
	return func(stats *StreamStats, err error) {
		if err != nil {
			sp.SetError(err.Error())
		} else if stats != nil {
			sp.SetAttr(
				trace.Int("rows", stats.Rows),
				trace.Int("repaired", stats.Repaired),
				trace.Int("steps", stats.Steps),
				trace.Int("oov", stats.OOV),
			)
		}
		sp.End()
	}
}

// StreamCSV repairs a CSV stream: it reads rows from r (an optional UTF-8
// BOM is skipped, and the header must match the repairer's schema),
// repairs each with the chosen algorithm, and writes the repaired rows
// (with header) to w, byte for byte as encoding/csv would render them.
// Memory use is constant in the input size, which suits the
// data-monitoring deployment the paper contrasts with editing rules:
// fixing rules repair a stream of incoming tuples with no user in the
// loop.
//
// Rows flow through the raw chunk pipeline (rawcsv.go) in chunks of
// opts.ChunkRows (default 512). When ctx is cancelled or its deadline
// passes, the stream stops between chunks and the cause is returned
// (errors.Is-compatible with context.DeadlineExceeded/Canceled). The output
// and the StreamStats are identical at any worker count.
func (rp *Repairer) StreamCSV(ctx context.Context, r io.Reader, w io.Writer, alg Algorithm, opts ParallelOptions) (stats *StreamStats, err error) {
	end := streamSpan(ctx, "repair.stream.csv")
	defer func() { end(stats, err) }()
	opts = opts.withDefaults(defaultStreamChunkRows)
	cr, header, err := rp.openChunkCSV(r)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, streamWriteBufSize)
	var hb []byte
	for i, a := range header {
		if i > 0 {
			hb = append(hb, ',')
		}
		hb = store.AppendCSVValue(hb, a)
	}
	hb = append(hb, '\n')
	if _, err := bw.Write(hb); err != nil {
		return nil, err
	}
	read := func(c *store.RawChunk) (int, error) { return cr.ReadRawChunk(c, opts.ChunkRows) }
	emit := func(b []byte) error { _, err := bw.Write(b); return err }
	stats, err = streamChunks(ctx, rp, opts, read, emit,
		func() *rawScratch { return &rawScratch{sc: rp.getScratch()} },
		func(rs *rawScratch) { rp.putScratch(rs.sc) },
		func(rs *rawScratch, u *rawUnit, acc *streamAccData) {
			rp.repairRawChunk(&u.chunk, rs, alg, acc, opts.Recorder, u.rowBase)
			rp.buildSpans(u, rs.reps)
		})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return stats, nil
}

// openChunkCSV opens a chunked CSV reader over r and validates the header
// against the repairer's schema.
func (rp *Repairer) openChunkCSV(r io.Reader) (*store.CSVChunkReader, []string, error) {
	sch := rp.rs.Schema()
	cr, header, err := store.NewCSVChunkReader(r, sch.Arity())
	if err != nil {
		return nil, nil, fmt.Errorf("repair: stream header: %w", err)
	}
	for i, a := range sch.Attrs() {
		if header[i] != a {
			return nil, nil, fmt.Errorf("repair: stream header field %d is %q, want %q", i, header[i], a)
		}
	}
	return cr, header, nil
}
