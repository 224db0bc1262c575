// Columnar chunk format ("fcol"), the repairing pipeline's binary relation
// format. Rows are grouped into chunks; each chunk stores, per attribute, a
// local dictionary of distinct values plus one small integer per row
// indexing into it. The repair engine translates each local dictionary to
// Σ codes once per chunk instead of hashing every cell, which is what
// closes the gap between the streaming and the in-memory engines.
//
// Layout (all integers are unsigned varints):
//
//	magic   "FCOLv1\n"
//	schema  name, attr count, attrs...      (each string: length + bytes)
//	chunks  repeated: tag 0x02, row count, then per attribute:
//	        dict length, dict strings..., one code per row (< dict length)
//	end     tag 0x00, crc32 (IEEE, 4 bytes big-endian) of everything before
//
// The tag byte makes the chunk stream self-terminating, so writers need
// not know the row count in advance; the trailing checksum detects
// truncation and corruption.

package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"fixrule/internal/schema"
)

const colMagic = "FCOLv1\n"

// ColumnarContentType is the media type fixserve negotiates for fcol
// request and response bodies.
const ColumnarContentType = "application/x-fcol"

const tagChunk = 0x02

const (
	// maxChunkRowsWire bounds a decoded chunk's claimed row count.
	maxChunkRowsWire = 1 << 20
	// maxChunkCells bounds rows × arity, the decoder's transient footprint.
	maxChunkCells = 1 << 24
	// maxDictSlack bounds how far a dictionary may exceed the row count
	// (writers only exceed it by appended repair facts).
	maxDictSlack = 1 << 16
)

// Column is one attribute's slice of a chunk: the local dictionary of
// distinct values (in first-appearance order, possibly followed by facts a
// repair appended) and one dictionary index per row.
type Column struct {
	Dict []string
	// Global carries the CSV chunk reader's persistent per-column value
	// identities, parallel to Dict (-1 for values without one). The repair
	// engine keys its cross-chunk translation cache on them. Empty on
	// chunks decoded from the wire.
	Global []int32
	Codes  []int32
}

// AppendExtra adds a value with no global identity to the dictionary (the
// repair layer writing a fact into the chunk) and returns its local code.
func (col *Column) AppendExtra(v string) int32 {
	lc := int32(len(col.Dict))
	col.Dict = append(col.Dict, v)
	if len(col.Global) > 0 {
		col.Global = append(col.Global, -1)
	}
	return lc
}

// ColChunk is a batch of rows in columnar form. Chunks are reused across
// reads: Reset keeps the backing arrays.
type ColChunk struct {
	Cols []Column
	Rows int
	// Echo, valid when EchoOK, holds the chunk's rows pre-rendered as CSV.
	// The CSV chunk reader sets it when re-emitting the input bytes is
	// byte-identical to re-rendering through encoding/csv (every row took
	// the quote-free fast path and no value needs quoting); a repair that
	// modifies the chunk clears EchoOK.
	Echo   []byte
	EchoOK bool
	// EchoEnd, set by the CSV chunk reader (one entry per row), holds each
	// row's end offset in Echo — the row's bytes, newline included, are
	// Echo[previous non-negative end:EchoEnd[i]] — or -1 when that row's
	// rendering is not its input bytes. Per-row spans let the renderer copy
	// the untouched rows of a chunk even when other rows were repaired.
	// Empty on wire-decoded chunks.
	EchoEnd []int32
	// Dirty, when non-empty, flags rows a repair modified (1 = modified);
	// their echo spans are stale and they must be re-rendered from the
	// dictionaries. In-memory only, never serialized.
	Dirty []uint8
}

// MarkDirty flags row i as modified, materialising the dirty vector (sized
// to the chunk's rows, zeroed) on the chunk's first repair.
func (c *ColChunk) MarkDirty(i int) {
	if len(c.Dirty) < c.Rows {
		if cap(c.Dirty) < c.Rows {
			c.Dirty = make([]uint8, c.Rows)
		} else {
			c.Dirty = c.Dirty[:c.Rows]
			for j := range c.Dirty {
				c.Dirty[j] = 0
			}
		}
	}
	c.Dirty[i] = 1
}

// Reset clears the chunk for reuse with the given arity, keeping capacity.
func (c *ColChunk) Reset(arity int) {
	if cap(c.Cols) < arity {
		c.Cols = make([]Column, arity)
	}
	c.Cols = c.Cols[:arity]
	for a := range c.Cols {
		col := &c.Cols[a]
		col.Dict = col.Dict[:0]
		col.Global = col.Global[:0]
		col.Codes = col.Codes[:0]
	}
	c.Rows = 0
	c.Echo = c.Echo[:0]
	c.EchoOK = false
	c.EchoEnd = c.EchoEnd[:0]
	c.Dirty = c.Dirty[:0]
}

// Value returns the string at (row, attr).
func (c *ColChunk) Value(row, attr int) string {
	col := &c.Cols[attr]
	return col.Dict[col.Codes[row]]
}

// AppendChunkFrame appends the wire encoding of c (tag, row count, per-
// attribute dictionaries and codes) to dst. Workers of the parallel
// columnar pipeline encode frames off the writer goroutine with it.
//
//fix:hotpath
func AppendChunkFrame(dst []byte, c *ColChunk) []byte {
	dst = append(dst, tagChunk)
	dst = binary.AppendUvarint(dst, uint64(c.Rows))
	for a := range c.Cols {
		col := &c.Cols[a]
		dst = binary.AppendUvarint(dst, uint64(len(col.Dict)))
		for _, v := range col.Dict {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
		for _, code := range col.Codes {
			dst = binary.AppendUvarint(dst, uint64(uint32(code)))
		}
	}
	return dst
}

// ChunkWriter streams chunks to an io.Writer in fcol form. Append chunks,
// then Close to write the end marker and checksum. Not safe for concurrent
// use.
type ChunkWriter struct {
	w      *bufio.Writer
	crc    hash.Hash32
	sch    *schema.Schema
	frame  []byte
	closed bool
	err    error
}

// NewChunkWriter writes the fcol header for sch and returns a chunk writer.
func NewChunkWriter(w io.Writer, sch *schema.Schema) (*ChunkWriter, error) {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), storeBufSize)
	out := &ChunkWriter{w: bw, crc: crc, sch: sch}
	if _, err := bw.WriteString(colMagic); err != nil {
		return nil, err
	}
	out.err = writeHeaderBody(bw, sch)
	if out.err != nil {
		return nil, out.err
	}
	return out, nil
}

// WriteChunk appends one chunk; its column count must match the schema
// arity and every column must carry one code per row. Empty chunks are
// skipped.
func (w *ChunkWriter) WriteChunk(c *ColChunk) error {
	if w.closed {
		return fmt.Errorf("store: WriteChunk after Close")
	}
	if w.err != nil {
		return w.err
	}
	if c.Rows == 0 {
		return nil
	}
	if len(c.Cols) != w.sch.Arity() {
		return fmt.Errorf("store: chunk has %d columns, schema arity %d", len(c.Cols), w.sch.Arity())
	}
	for a := range c.Cols {
		if len(c.Cols[a].Codes) != c.Rows {
			return fmt.Errorf("store: column %d has %d codes for %d rows", a, len(c.Cols[a].Codes), c.Rows)
		}
	}
	w.frame = AppendChunkFrame(w.frame[:0], c)
	return w.WriteFrame(w.frame)
}

// WriteFrame appends a pre-encoded chunk frame (as built by
// AppendChunkFrame). The parallel pipeline encodes frames in its workers
// and threads only the bytes through the ordered writer.
func (w *ChunkWriter) WriteFrame(frame []byte) error {
	if w.closed {
		return fmt.Errorf("store: WriteFrame after Close")
	}
	if w.err != nil {
		return w.err
	}
	_, w.err = w.w.Write(frame)
	return w.err
}

// Close writes the end marker and checksum and flushes. The underlying
// writer is not closed.
func (w *ChunkWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.w.WriteByte(tagEnd); err != nil {
		return err
	}
	// Flush so the CRC covers everything up to (and including) the end tag.
	if err := w.w.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], w.crc.Sum32())
	if _, err := w.w.Write(sum[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// ChunkScanner streams chunks from an fcol stream.
type ChunkScanner struct {
	r    *crcReader
	crc  hash.Hash32
	sch  *schema.Schema
	err  error
	done bool
}

// NewChunkScanner reads and validates the fcol header.
func NewChunkScanner(r io.Reader) (*ChunkScanner, error) {
	crc := crc32.NewIEEE()
	br := &crcReader{br: bufio.NewReaderSize(r, storeBufSize), crc: crc}
	head := make([]byte, len(colMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(head) != colMagic {
		return nil, fmt.Errorf("store: bad magic %q", head)
	}
	sch, err := readHeaderBody(br)
	if err != nil {
		return nil, err
	}
	return &ChunkScanner{r: br, crc: crc, sch: sch}, nil
}

// Schema returns the stream's schema.
func (s *ChunkScanner) Schema() *schema.Schema { return s.sch }

// ReadChunk decodes the next non-empty chunk into c (reusing its backing
// arrays) and returns its row count. At a clean end of stream — end tag
// present, checksum verified — it returns 0, io.EOF.
func (s *ChunkScanner) ReadChunk(c *ColChunk) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.done {
		return 0, io.EOF
	}
	for {
		tag, err := s.r.ReadByte()
		if err != nil {
			return 0, s.fail(fmt.Errorf("store: chunk tag: %w", err))
		}
		switch tag {
		case tagChunk:
			rows, err := s.decodeChunk(c)
			if err != nil {
				return 0, s.fail(err)
			}
			if rows == 0 {
				continue
			}
			return rows, nil
		case tagEnd:
			s.done = true
			// The CRC covers everything up to and including the end tag; read
			// the trailer from the raw reader so it stays out of the hash.
			want := s.crc.Sum32()
			var sum [4]byte
			if _, err := io.ReadFull(s.r.br, sum[:]); err != nil {
				return 0, s.fail(fmt.Errorf("store: checksum: %w", err))
			}
			if got := binary.BigEndian.Uint32(sum[:]); got != want {
				return 0, s.fail(fmt.Errorf("store: checksum mismatch: file %08x, computed %08x", got, want))
			}
			return 0, io.EOF
		default:
			return 0, s.fail(fmt.Errorf("store: unknown tag 0x%02x", tag))
		}
	}
}

func (s *ChunkScanner) fail(err error) error {
	s.err = err
	return err
}

func (s *ChunkScanner) decodeChunk(c *ColChunk) (int, error) {
	rows64, err := binary.ReadUvarint(s.r)
	if err != nil {
		return 0, fmt.Errorf("store: chunk rows: %w", err)
	}
	arity := s.sch.Arity()
	if rows64 > maxChunkRowsWire || rows64*uint64(arity) > maxChunkCells {
		return 0, fmt.Errorf("store: implausible chunk size %d rows", rows64)
	}
	rows := int(rows64)
	c.Reset(arity)
	c.Rows = rows
	for a := 0; a < arity; a++ {
		col := &c.Cols[a]
		dictLen64, err := binary.ReadUvarint(s.r)
		if err != nil {
			return 0, fmt.Errorf("store: column %d dict length: %w", a, err)
		}
		if dictLen64 > rows64+maxDictSlack {
			return 0, fmt.Errorf("store: column %d dict length %d exceeds %d rows", a, dictLen64, rows)
		}
		dictLen := int(dictLen64)
		for j := 0; j < dictLen; j++ {
			v, err := readLString(s.r)
			if err != nil {
				return 0, fmt.Errorf("store: column %d dict entry %d: %w", a, j, err)
			}
			col.Dict = append(col.Dict, v)
		}
		for i := 0; i < rows; i++ {
			code, err := binary.ReadUvarint(s.r)
			if err != nil {
				return 0, fmt.Errorf("store: column %d code %d: %w", a, i, err)
			}
			if code >= dictLen64 {
				return 0, fmt.Errorf("store: column %d code %d out of range (dict %d)", a, code, dictLen)
			}
			col.Codes = append(col.Codes, int32(code))
		}
	}
	return rows, nil
}

// Err returns the first error encountered (nil on a clean end of stream).
func (s *ChunkScanner) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// defaultConvertChunkRows is the chunk size WriteColumnar batches rows by.
const defaultConvertChunkRows = 4096

// WriteColumnar streams an in-memory relation to w in fcol form.
// chunkRows <= 0 selects a default.
func WriteColumnar(w io.Writer, rel *schema.Relation, chunkRows int) error {
	if chunkRows <= 0 {
		chunkRows = defaultConvertChunkRows
	}
	cw, err := NewChunkWriter(w, rel.Schema())
	if err != nil {
		return err
	}
	arity := rel.Schema().Arity()
	var c ColChunk
	rows := rel.Rows()
	for lo := 0; lo < len(rows); lo += chunkRows {
		hi := lo + chunkRows
		if hi > len(rows) {
			hi = len(rows)
		}
		c.Reset(arity)
		c.Rows = hi - lo
		for a := 0; a < arity; a++ {
			col := &c.Cols[a]
			seen := make(map[string]int32, 64)
			for _, t := range rows[lo:hi] {
				v := t[a]
				code, ok := seen[v]
				if !ok {
					code = int32(len(col.Dict))
					col.Dict = append(col.Dict, v)
					seen[v] = code
				}
				col.Codes = append(col.Codes, code)
			}
		}
		if err := cw.WriteChunk(&c); err != nil {
			return err
		}
	}
	return cw.Close()
}

// ReadColumnar loads a whole fcol stream into memory.
func ReadColumnar(r io.Reader) (*schema.Relation, error) {
	s, err := NewChunkScanner(r)
	if err != nil {
		return nil, err
	}
	rel := schema.NewRelation(s.Schema())
	arity := s.sch.Arity()
	var c ColChunk
	for {
		rows, err := s.ReadChunk(&c)
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < rows; i++ {
			t := make(schema.Tuple, arity)
			for a := 0; a < arity; a++ {
				t[a] = c.Value(i, a)
			}
			rel.Append(t)
		}
	}
}

// Save writes a relation to the named file in fcol form.
func Save(path string, rel *schema.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteColumnar(f, rel, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a whole fcol file into memory.
func Load(path string) (*schema.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadColumnar(f)
}
