package store

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/rand"
	"strings"
	"testing"

	"fixrule/internal/schema"
)

func TestColumnarRoundTrip(t *testing.T) {
	rel := sampleRelation()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, rel, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(rel.Schema()) {
		t.Errorf("schema = %s", got.Schema())
	}
	if got.Len() != rel.Len() || len(schema.Diff(rel, got)) != 0 {
		t.Fatal("columnar round trip changed data")
	}
}

// TestColumnarRewriteByteIdentical: scanning a stream chunk by chunk and
// re-writing each chunk reproduces the original bytes exactly — the
// decoder preserves dictionaries and codes, and the encoder is
// deterministic.
func TestColumnarRewriteByteIdentical(t *testing.T) {
	rel := randomRelation(t, 500)
	var orig bytes.Buffer
	if err := WriteColumnar(&orig, rel, 64); err != nil {
		t.Fatal(err)
	}
	sc, err := NewChunkScanner(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cw, err := NewChunkWriter(&out, sc.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var c ColChunk
	for {
		_, err := sc.ReadChunk(&c)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteChunk(&c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), out.Bytes()) {
		t.Fatalf("rewrite differs: %d vs %d bytes", orig.Len(), out.Len())
	}
}

// scanColumnar reads an fcol stream chunk by chunk, as the repair stream
// does, and returns the first error; a clean end of stream returns nil.
// The error must also stick: the next ReadChunk and Err report it again.
func scanColumnar(t *testing.T, data []byte) error {
	t.Helper()
	sc, err := NewChunkScanner(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var c ColChunk
	for {
		_, err := sc.ReadChunk(&c)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if _, again := sc.ReadChunk(&c); again != err || sc.Err() != err {
				t.Errorf("error not sticky: %v, then %v, Err %v", err, again, sc.Err())
			}
			return err
		}
	}
}

// TestColumnarDetectsCorruption: on a multi-chunk stream the chunk scanner
// reports a flipped byte or a cut in any chunk. A flip inside a dictionary
// value leaves every chunk decodable, so only the trailing checksum, which
// covers them all, can catch it.
func TestColumnarDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, randomRelation(t, 500), 64); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if err := scanColumnar(t, good); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	var inValue []int // a byte inside each dictionary copy of one value
	for off := 0; ; {
		i := bytes.Index(good[off:], []byte("comma,inside"))
		if i < 0 {
			break
		}
		inValue = append(inValue, off+i+2)
		off += i + 1
	}
	if len(inValue) < 3 {
		t.Fatalf("value found in %d chunk dictionaries, want several", len(inValue))
	}
	for _, pos := range []int{inValue[1], inValue[len(inValue)-1], len(good) / 2} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if scanColumnar(t, bad) == nil {
			t.Errorf("corruption at byte %d of %d not detected", pos, len(good))
		}
	}
	for _, cut := range []int{len(good) / 3, 2 * len(good) / 3, len(good) - 4} {
		if scanColumnar(t, good[:cut]) == nil {
			t.Errorf("truncation at %d of %d not detected", cut, len(good))
		}
	}
}

// nastyValues exercises every CSV quoting rule: quotes, commas, newlines,
// carriage returns, leading spaces, the \. escape, and plain values.
var nastyValues = []string{
	"plain", "", `has"quote`, "comma,inside", "line\nbreak", "cr\rhere",
	" leadspace", "\ttab", `\.`, "ünïcode", "trail ", `""`, "a\r\nb",
	" nbsp", "ok2",
}

func randomRelation(t *testing.T, rows int) *schema.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	sch := schema.New("R", "a", "b", "c")
	rel := schema.NewRelation(sch)
	for i := 0; i < rows; i++ {
		tup := make(schema.Tuple, 3)
		for j := range tup {
			tup[j] = nastyValues[rng.Intn(len(nastyValues))]
		}
		rel.Append(tup)
	}
	return rel
}

// writeCSV renders rel with encoding/csv — the reference the chunk reader
// and renderer must match byte for byte.
func writeCSV(t *testing.T, rel *schema.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(rel.Schema().Attrs()); err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Rows() {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCSVChunkReaderMatchesEncodingCSV parses adversarial CSV with both
// readers and requires identical records. The reference is encoding/csv's
// own reading of the bytes (which, e.g., normalises \r\n to \n inside
// quoted fields), not the relation the bytes were rendered from.
func TestCSVChunkReaderMatchesEncodingCSV(t *testing.T) {
	rel := randomRelation(t, 400)
	data := writeCSV(t, rel)
	want, err := refParse(string(data), 3)
	if err != nil {
		t.Fatal(err)
	}

	cr, header, err := NewCSVChunkReader(bytes.NewReader(data), 3)
	if err != nil {
		t.Fatal(err)
	}
	if wantH := rel.Schema().Attrs(); !equalStrings(header, wantH) {
		t.Fatalf("header = %q, want %q", header, wantH)
	}
	var c ColChunk
	row := 0
	for {
		n, err := cr.ReadChunk(&c, 64)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for a := 0; a < 3; a++ {
				if got := c.Value(i, a); got != want[row][a] {
					t.Fatalf("row %d col %d = %q, want %q", row, a, got, want[row][a])
				}
			}
			row++
		}
	}
	if row != len(want) {
		t.Fatalf("read %d rows, want %d", row, len(want))
	}
}

// TestCSVChunkRendererByteIdentical: chunk-parse then chunk-render must
// reproduce encoding/csv's output exactly, echo or not.
func TestCSVChunkRendererByteIdentical(t *testing.T) {
	for name, rel := range map[string]*schema.Relation{
		"nasty": randomRelation(t, 300),
		"plain": plainRelation(300),
	} {
		data := writeCSV(t, rel)
		// The reference is what a csv.Reader → csv.Writer pass over the
		// bytes produces (the existing StreamCSV data path).
		want := roundTripCSV(t, data, rel.Schema().Arity())
		cr, header, err := NewCSVChunkReader(bytes.NewReader(data), rel.Schema().Arity())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out []byte
		for i, h := range header {
			if i > 0 {
				out = append(out, ',')
			}
			out = AppendCSVValue(out, h)
		}
		out = append(out, '\n')
		var c ColChunk
		var rend CSVChunkRenderer
		sawEcho := false
		for {
			_, err := cr.ReadChunk(&c, 64)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sawEcho = sawEcho || c.EchoOK
			out = rend.AppendChunkCSV(out, &c)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: render differs from encoding/csv", name)
		}
		if name == "plain" && !sawEcho {
			t.Error("plain relation never took the echo fast path")
		}
		if name == "nasty" && sawEcho {
			t.Error("nasty relation echoed a chunk that needs quoting")
		}
	}
}

// roundTripCSV passes data through csv.Reader → csv.Writer, the reference
// transformation the chunk pipeline must reproduce byte for byte.
func roundTripCSV(t *testing.T, data []byte, arity int) []byte {
	t.Helper()
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = arity
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

func plainRelation(rows int) *schema.Relation {
	sch := schema.New("R", "a", "b", "c")
	rel := schema.NewRelation(sch)
	vals := []string{"alpha", "beta", "gamma", "delta", ""}
	for i := 0; i < rows; i++ {
		rel.Append(schema.Tuple{vals[i%5], vals[(i+1)%5], vals[(i+2)%5]})
	}
	return rel
}

// TestCSVChunkReaderTrickyInputs feeds raw CSV fragments to both parsers
// and requires agreement on acceptance and on the parsed records.
func TestCSVChunkReaderTrickyInputs(t *testing.T) {
	inputs := []string{
		"a,b\n1,2\n3,4\n",
		"a,b\r\n1,2\r\n",
		"a,b\n\n\n1,2\n",                   // blank lines skipped
		"a,b\n1,2",                         // no trailing newline
		"a,b\n1,2\r",                       // trailing \r at EOF
		"a,b\n\"x\",y\n",                   // quoted field
		"a,b\n\"x\"\"y\",z\n",              // escaped quote
		"a,b\n\"multi\nline\",z\n",         // newline in quoted field
		"a,b\n\"multi\r\nline\",z\n",       // \r\n in quoted field
		"a,b\n,\n",                         // empty fields
		"a,b\nx,\"\"\n",                    // empty quoted field
		"\xEF\xBB\xBFa,b\n1,2\n",           // BOM
		"a,b\n\" lead\",z\n",               // leading space, quoted
		"a,b\nx\"y,z\n",                    // bare quote: error
		"a,b\n\"x\"y,z\n",                  // stray char after quote: error
		"a,b\n\"unterminated,z\n",          // unterminated quote: error
		"a,b\n1,2,3\n",                     // too many fields: error
		"a,b\n1\n",                         // too few fields: error
		"a,b\nx,y\ntoo,many,fields\nz,w\n", // error mid-stream
		"a,b\n\"x\ny\"\"z\",\"q\"\n plain,q\n",
		"",    // empty input: header EOF
		"a,b", // header only, no newline
	}
	for _, in := range inputs {
		refRecs, refErr := refParse(in, 2)
		gotRecs, gotErr := chunkParse(in, 2)
		if (refErr == nil) != (gotErr == nil) {
			t.Errorf("%q: ref err %v, chunk err %v", in, refErr, gotErr)
			continue
		}
		if refErr != nil {
			// Both fail; rows accepted before the error must agree too.
			if len(refRecs) != len(gotRecs) {
				t.Errorf("%q: ref accepted %d rows before error, chunk %d", in, len(refRecs), len(gotRecs))
			}
			continue
		}
		if len(refRecs) != len(gotRecs) {
			t.Errorf("%q: ref %d rows, chunk %d", in, len(refRecs), len(gotRecs))
			continue
		}
		for i := range refRecs {
			if !equalStrings(refRecs[i], gotRecs[i]) {
				t.Errorf("%q row %d: ref %q, chunk %q", in, i, refRecs[i], gotRecs[i])
			}
		}
	}
}

// refParse runs encoding/csv over in (header + records, arity fields).
func refParse(in string, arity int) ([][]string, error) {
	r := csv.NewReader(strings.NewReader(in))
	r.FieldsPerRecord = arity
	if _, err := r.Read(); err != nil {
		return nil, err
	}
	var recs [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// chunkParse runs CSVChunkReader over in with a small chunk size.
func chunkParse(in string, arity int) ([][]string, error) {
	cr, _, err := NewCSVChunkReader(strings.NewReader(in), arity)
	if err != nil {
		return nil, err
	}
	var recs [][]string
	var c ColChunk
	for {
		n, err := cr.ReadChunk(&c, 3)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		for i := 0; i < n; i++ {
			rec := make([]string, arity)
			for a := 0; a < arity; a++ {
				rec[a] = c.Value(i, a)
			}
			recs = append(recs, rec)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInternTableOverflow drives a column past maxInternEntries and checks
// values still parse correctly through the fallback path.
func TestInternTableOverflow(t *testing.T) {
	var tbl internTable
	var col Column
	for i := 0; i < maxInternEntries+100; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i >> 16), 'x'}
		tbl.add(&col, b, 1)
	}
	if len(col.Codes) != maxInternEntries+100 {
		t.Fatalf("codes = %d", len(col.Codes))
	}
	for i, code := range col.Codes {
		want := string([]byte{byte(i), byte(i >> 8), byte(i >> 16), 'x'})
		if col.Dict[code] != want {
			t.Fatalf("entry %d = %q, want %q", i, col.Dict[code], want)
		}
	}
	// Re-adding an interned value in a later epoch dedups within the chunk.
	var col2 Column
	tbl.add(&col2, []byte{0, 0, 0, 'x'}, 2)
	tbl.add(&col2, []byte{0, 0, 0, 'x'}, 2)
	if len(col2.Dict) != 1 || len(col2.Codes) != 2 {
		t.Fatalf("dedup failed: dict %d codes %d", len(col2.Dict), len(col2.Codes))
	}
}
