// Package trace defines the memory-reference trace format used by the
// simulator, plus binary readers and writers for storing traces on disk.
//
// The paper collects last-level-cache access traces with a modified Valgrind
// and replays them through a trace-driven cache model (Section 4.3). We
// reproduce that pipeline: workload generators (package workload) produce
// Record streams, the cache hierarchy (package cache) filters them, and both
// full reference streams and LLC-filtered block streams can be serialized
// with this package for offline replay (Belady's MIN, GA fitness).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record is one memory reference in a trace. The fields are ordered widest
// first so the struct packs into 24 bytes with no interior padding: streams
// of millions of records are the simulator's largest resident data, and
// every replay walks them.
type Record struct {
	// PC is the address of the memory instruction (used by PC-indexed
	// policies such as SHiP).
	PC uint64
	// Addr is the byte address of the data reference.
	Addr uint64
	// Gap is the number of instructions executed since the previous record,
	// inclusive of this memory instruction; it is always >= 1 and is used
	// by the CPU timing models to account for non-memory work.
	Gap uint32
	// Write is true for stores.
	Write bool
	// Core identifies the requesting core in multi-core simulations
	// (0 in single-core traces). Core-aware shared-cache policies such as
	// PIPP partition by it. It is not serialized by Writer: stored traces
	// are single-core; the multicore scheduler stamps it at run time.
	Core uint8
}

// Source yields a stream of records. Next returns ok=false when the stream
// is exhausted.
type Source interface {
	Next() (rec Record, ok bool)
}

// SliceSource adapts an in-memory record slice to a Source.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource returns a Source reading from recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.i = 0 }

// Collect drains up to max records from src into a slice. max <= 0 collects
// everything.
func Collect(src Source, max int) []Record {
	var recs []Record
	for max <= 0 || len(recs) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return recs
}

// Instructions returns the total instruction count represented by recs (the
// sum of gaps).
func Instructions(recs []Record) uint64 {
	var n uint64
	for _, r := range recs {
		n += uint64(r.Gap)
	}
	return n
}

// File format: an 8-byte magic, a version byte, then varint-encoded records.
// PC and Addr are zigzag-delta encoded against the previous record, which
// compresses the strong spatial locality of real reference streams well.
const (
	magic   = "GIPPRTRC"
	version = 1
)

// Writer serializes records to an io.Writer. Call Flush when done.
type Writer struct {
	bw       *bufio.Writer
	prevPC   uint64
	prevAddr uint64
	wrote    bool
	count    uint64
}

// NewWriter returns a Writer that writes the trace header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriter(w)}
	if _, err := tw.bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := tw.bw.WriteByte(version); err != nil {
		return nil, err
	}
	return tw, nil
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// Write appends one record. Gap must be >= 1.
func (tw *Writer) Write(r Record) error {
	if r.Gap == 0 {
		return errors.New("trace: record gap must be >= 1")
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := tw.bw.Write(buf[:n])
		return err
	}
	flags := uint64(0)
	if r.Write {
		flags = 1
	}
	if err := put(uint64(r.Gap)<<1 | flags); err != nil {
		return err
	}
	if err := put(zigzag(int64(r.PC - tw.prevPC))); err != nil {
		return err
	}
	if err := put(zigzag(int64(r.Addr - tw.prevAddr))); err != nil {
		return err
	}
	tw.prevPC, tw.prevAddr = r.PC, r.Addr
	tw.wrote = true
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered output to the underlying writer.
func (tw *Writer) Flush() error { return tw.bw.Flush() }

// Reader deserializes records written by Writer. It implements Source
// semantics via Read, which returns io.EOF at end of trace.
type Reader struct {
	br       *bufio.Reader
	prevPC   uint64
	prevAddr uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, errors.New("trace: bad magic (not a gippr trace)")
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
	return &Reader{br: br}, nil
}

// Read returns the next record, or io.EOF at the end of the trace.
func (tr *Reader) Read() (Record, error) {
	gf, err := binary.ReadUvarint(tr.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: reading gap: %w", err)
	}
	dpc, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record (pc): %w", err)
	}
	daddr, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record (addr): %w", err)
	}
	tr.prevPC += uint64(unzig(dpc))
	tr.prevAddr += uint64(unzig(daddr))
	r := Record{
		Gap:   uint32(gf >> 1),
		Write: gf&1 == 1,
		PC:    tr.prevPC,
		Addr:  tr.prevAddr,
	}
	if r.Gap == 0 {
		return Record{}, errors.New("trace: corrupt record with zero gap")
	}
	return r, nil
}

// ReadAll reads every remaining record.
func (tr *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		r, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}

// Next adapts Reader to the Source interface, silently stopping at EOF or on
// a corrupt tail.
func (tr *Reader) Next() (Record, bool) {
	r, err := tr.Read()
	if err != nil {
		return Record{}, false
	}
	return r, true
}
