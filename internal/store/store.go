// Package store holds the repairing pipeline's bulk I/O: the chunked CSV
// reader (csvchunk.go, rawchunk.go) and fcol, a checksummed binary
// column-chunk format (colchunk.go, docs/FORMAT.md). This file has the
// framing pieces fcol's writer and scanner build on: the schema section and
// the checksum-feeding reader.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"fixrule/internal/schema"
)

// maxValueLen guards scanners against corrupt length prefixes.
const maxValueLen = 1 << 24

// storeBufSize sizes fcol's buffered readers and writers: large enough to
// batch syscalls on bulk streams, small enough that a server holding a few
// dozen concurrent streams stays cheap.
const storeBufSize = 1 << 16

// tagEnd closes a stream; the checksum follows it.
const tagEnd = 0x00

// writeHeaderBody writes the schema section: name, arity, attribute names.
func writeHeaderBody(bw *bufio.Writer, sch *schema.Schema) error {
	writeLString := func(s string) error {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], uint64(len(s)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeLString(sch.Name()); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(sch.Arity()))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, a := range sch.Attrs() {
		if err := writeLString(a); err != nil {
			return err
		}
	}
	return nil
}

// crcReader feeds the checksum with exactly the bytes handed to the
// caller, unlike a TeeReader under bufio (whose read-ahead would pollute
// the hash with unprocessed bytes).
type crcReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	one [1]byte // reusable buffer so per-byte reads do not allocate
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.one[0] = b
		c.crc.Write(c.one[:])
	}
	return b, err
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

// readHeaderBody reads and validates the schema section: name, arity,
// attribute names.
func readHeaderBody(br *crcReader) (*schema.Schema, error) {
	name, err := readLString(br)
	if err != nil {
		return nil, fmt.Errorf("store: schema name: %w", err)
	}
	arity, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: arity: %w", err)
	}
	if arity == 0 || arity > 4096 {
		return nil, fmt.Errorf("store: implausible arity %d", arity)
	}
	attrs := make([]string, arity)
	for i := range attrs {
		if attrs[i], err = readLString(br); err != nil {
			return nil, fmt.Errorf("store: attr %d: %w", i, err)
		}
	}
	var sch *schema.Schema
	if err := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("store: invalid schema: %v", rec)
			}
		}()
		sch = schema.New(name, attrs...)
		return nil
	}(); err != nil {
		return nil, err
	}
	return sch, nil
}

// readLString reads one length-prefixed string, guarding the length.
func readLString(r *crcReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxValueLen {
		return "", fmt.Errorf("value length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
