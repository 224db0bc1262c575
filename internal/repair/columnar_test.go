package repair

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// relationFcol renders a relation in the fcol chunk format.
func relationFcol(tb testing.TB, rel *schema.Relation, chunkRows int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := store.WriteColumnar(&buf, rel, chunkRows); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamColumnarFcol: the fcol→fcol path repairs to the same rows and
// stats as the reference at any worker count, its output decodes cleanly
// (checksummed), and a dead context stops it like the CSV path.
func TestStreamColumnarFcol(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(2000)
	want := r.RepairRelation(rel, Linear)
	_, seqStats := referenceStream(t, r, relationCSV(t, rel), Linear)
	for _, workers := range workerCounts() {
		for _, chunkRows := range []int{256, 3000} {
			in := relationFcol(t, rel, chunkRows)
			var out bytes.Buffer
			stats, err := r.StreamColumnar(context.Background(), bytes.NewReader(in), &out, Linear,
				ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunkRows, err)
			}
			got, err := store.ReadColumnar(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: decoding repaired stream: %v", workers, chunkRows, err)
			}
			if len(schema.Diff(want.Relation, got)) != 0 {
				t.Errorf("workers=%d chunk=%d: repaired rows differ from RepairRelation", workers, chunkRows)
			}
			if !reflect.DeepEqual(seqStats, stats) {
				t.Errorf("workers=%d chunk=%d: stats = %+v, want %+v", workers, chunkRows, stats, seqStats)
			}
		}
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := r.StreamColumnar(dead, bytes.NewReader(relationFcol(t, rel, 256)), io.Discard, Linear,
			ParallelOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: dead context: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestStreamColumnarFcolSchemaMismatch: a stream whose schema differs from
// the ruleset's is rejected up front.
func TestStreamColumnarFcolSchemaMismatch(t *testing.T) {
	r := NewRepairer(paperRuleset())
	other := schema.NewRelation(schema.New("other", "x", "y"))
	other.Append(schema.Tuple{"1", "2"})
	in := relationFcol(t, other, 0)
	_, err := r.StreamColumnar(context.Background(), bytes.NewReader(in), io.Discard, Linear, ParallelOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not match rule schema") {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
}
