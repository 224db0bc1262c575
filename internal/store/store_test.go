package store

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"fixrule/internal/dataset"
	"fixrule/internal/schema"
)

func sampleRelation() *schema.Relation {
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	rel := schema.NewRelation(sch)
	rel.Append(schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"})
	rel.Append(schema.Tuple{"Ian", "China", "Shanghai", "Hong, kong", "ICDE"})
	rel.Append(schema.Tuple{"", "", "", "", ""}) // empty values round-trip too
	return rel
}

func TestRoundTripLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sch := schema.New("R", "a", "b", "c")
	rel := schema.NewRelation(sch)
	for i := 0; i < 5000; i++ {
		row := make(schema.Tuple, 3)
		for j := range row {
			n := rng.Intn(40)
			b := make([]byte, n)
			rng.Read(b)
			row[j] = string(b) // arbitrary bytes, including NUL and high bits
		}
		rel.Append(row)
	}
	// 700-row chunks leave a short last chunk; 0 selects the default.
	for _, chunkRows := range []int{700, 0} {
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, rel, chunkRows); err != nil {
			t.Fatal(err)
		}
		got, err := ReadColumnar(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != rel.Len() || len(schema.Diff(rel, got)) != 0 {
			t.Fatalf("chunk=%d: random round trip differs", chunkRows)
		}
	}
}

func TestScannerStreaming(t *testing.T) {
	rel := sampleRelation()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, rel, 2); err != nil {
		t.Fatal(err)
	}
	s, err := NewChunkScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var c ColChunk
	n := 0
	for {
		rows, err := s.ReadChunk(&c)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			for a := 0; a < rel.Schema().Arity(); a++ {
				if got := c.Value(i, a); got != rel.Row(n)[a] {
					t.Errorf("row %d attr %d = %q", n, a, got)
				}
			}
			n++
		}
	}
	if s.Err() != nil || n != rel.Len() {
		t.Errorf("n=%d err=%v", n, s.Err())
	}
	// ReadChunk after the end stays at EOF.
	if _, err := s.ReadChunk(&c); err != io.EOF {
		t.Errorf("ReadChunk after end: err = %v, want io.EOF", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewChunkWriter(&buf, schema.New("R", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	one := ColChunk{Cols: []Column{{Dict: []string{"x"}, Codes: []int32{0}}}, Rows: 1}
	if err := w.WriteChunk(&one); err == nil {
		t.Error("column count mismatch accepted")
	}
	short := ColChunk{Cols: []Column{{Dict: []string{"x"}, Codes: []int32{0}}, {Dict: []string{"y"}}}, Rows: 1}
	if err := w.WriteChunk(&short); err == nil {
		t.Error("column without a code per row accepted")
	}
	if err := w.WriteChunk(&ColChunk{}); err != nil {
		t.Errorf("empty chunk: %v", err)
	}
	good := ColChunk{Cols: []Column{{Dict: []string{"1"}, Codes: []int32{0}}, {Dict: []string{"2"}, Codes: []int32{0}}}, Rows: 1}
	if err := w.WriteChunk(&good); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := w.WriteChunk(&good); err == nil {
		t.Error("WriteChunk after Close accepted")
	}
	got, err := ReadColumnar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Row(0).Equal(schema.Tuple{"1", "2"}) {
		t.Errorf("rows = %v", got.Rows())
	}
}

// TestCorruptionDetected: a flipped byte, a truncation or a bad magic
// makes ReadColumnar fail — the checksum catches flips unless the flip
// makes the stream structurally invalid first, which is also an error.
func TestCorruptionDetected(t *testing.T) {
	rel := sampleRelation()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, rel, 0); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, pos := range []int{len(colMagic) + 2, len(good) / 2, len(good) - 6} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if _, err := ReadColumnar(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
	for _, cut := range []int{len(good) - 1, len(good) - 3, len(good) - 5, len(good) / 2, 3} {
		if _, err := ReadColumnar(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, err := ReadColumnar(strings.NewReader("NOTAFCOL")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	rel := sampleRelation()
	path := filepath.Join(t.TempDir(), "travel.fcol")
	if err := Save(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Diff(rel, got)) != 0 {
		t.Error("Save/Load round trip differs")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.fcol")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCompactVsCSV(t *testing.T) {
	// The binary format should not be larger than CSV for realistic data.
	d := dataset.Hosp(2000, 1)
	var fcol, csv bytes.Buffer
	if err := WriteColumnar(&fcol, d.Rel, 0); err != nil {
		t.Fatal(err)
	}
	if err := schema.WriteCSV(&csv, d.Rel); err != nil {
		t.Fatal(err)
	}
	if fcol.Len() > csv.Len()*11/10 {
		t.Errorf("fcol %d bytes vs csv %d bytes", fcol.Len(), csv.Len())
	}
}

// failingWriter errors after n bytes, exercising the error paths of the
// writer stack.
type failingWriter struct {
	n       int
	written int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errShort
	}
	f.written += len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "disk full" }

func TestWriteErrorPropagation(t *testing.T) {
	rel := sampleRelation()
	// Even the header exceeds a 4-byte budget: the write must fail
	// whichever flush first reaches the sink.
	for _, budget := range []int{4, 40, 120} {
		fw := &failingWriter{n: budget}
		if err := WriteColumnar(fw, rel, 2); err == nil {
			t.Errorf("budget %d: write succeeded", budget)
		}
	}
}

func TestSaveErrorOnBadPath(t *testing.T) {
	if err := Save("/nonexistent-dir/sub/file.fcol", sampleRelation()); err == nil {
		t.Error("Save into a missing directory succeeded")
	}
}
