package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Stream file format: the fixed-width on-disk form of one captured LLC
// stream, which loads without decoding a varint.
//
//	header  magic "GIPPRLLC", version (uint32), key length (uint32),
//	        key bytes, record count (uint64)
//	records count × 22 bytes: PC (uint64), Addr (uint64), Gap (uint32),
//	        Write (one byte, 0 or 1), Core (one byte)
//	trailer CRC-32C (Castagnoli) of every byte before it (uint32)
//
// Every integer is little-endian. The key is the caller's description of
// what produced the stream; a load names the key it expects and refuses any
// other. The CRC catches torn and rotted files; it is not a MAC. Bump
// streamVersion whenever this layout changes.
const (
	streamMagic       = "GIPPRLLC"
	streamVersion     = 1
	streamRecordBytes = 22
	// streamChunk is the one buffer a stream passes through on its way to
	// or from disk: the whole records that fit in 64 KiB.
	streamChunk = (64 << 10) / streamRecordBytes * streamRecordBytes
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptStream marks a stream file that opened but is not exactly a
// stream under the expected key within the record budget: torn, rotted,
// truncated, extended, written by another layout version or for another
// key.
var ErrCorruptStream = errors.New("trace: corrupt stream file")

// streamHeader returns the header a stream of count records under key
// starts with.
func streamHeader(key string, count int) []byte {
	h := make([]byte, 0, 24+len(key))
	h = append(h, streamMagic...)
	h = binary.LittleEndian.AppendUint32(h, streamVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(key)))
	h = append(h, key...)
	return binary.LittleEndian.AppendUint64(h, uint64(count))
}

// writeStream encodes recs under key to w: the header, then the records
// through one streamChunk buffer, then the CRC.
func writeStream(w io.Writer, key string, recs []Record) error {
	head := streamHeader(key, len(recs))
	if _, err := w.Write(head); err != nil {
		return err
	}
	crc := crc32.Checksum(head, castagnoli)
	buf := make([]byte, streamChunk)
	n := 0
	flush := func() error {
		crc = crc32.Update(crc, castagnoli, buf[:n])
		_, err := w.Write(buf[:n])
		n = 0
		return err
	}
	for i := range recs {
		if n+streamRecordBytes > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		r := &recs[i]
		b := buf[n : n+streamRecordBytes]
		binary.LittleEndian.PutUint64(b[0:], r.PC)
		binary.LittleEndian.PutUint64(b[8:], r.Addr)
		binary.LittleEndian.PutUint32(b[16:], r.Gap)
		b[20] = 0
		if r.Write {
			b[20] = 1
		}
		b[21] = r.Core
		n += streamRecordBytes
	}
	if err := flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc))
	return err
}

// readStream decodes the stream file of size bytes that r reads, which
// must carry key and at most maxRecords records. It checks the header and
// the size before it allocates, so a hostile file costs at most the
// maxRecords budget; it allocates the records once, decodes them through
// one streamChunk buffer, and verifies the CRC before it returns them.
func readStream(r io.Reader, size int64, key string, maxRecords int) ([]Record, error) {
	want := streamHeader(key, 0)
	head := make([]byte, len(want))
	if size < int64(len(head))+4 {
		return nil, fmt.Errorf("trace: stream file of %d bytes is shorter than its header", size)
	}
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("trace: reading stream header: %w", err)
	}
	keyEnd := len(want) - 8
	if string(head[:keyEnd]) != string(want[:keyEnd]) {
		return nil, errors.New("trace: stream header does not match (magic, version or key)")
	}
	count := binary.LittleEndian.Uint64(head[keyEnd:])
	if count > uint64(max(maxRecords, 0)) {
		return nil, fmt.Errorf("trace: stream holds %d records, over the budget of %d", count, maxRecords)
	}
	if size != int64(len(head))+int64(count)*streamRecordBytes+4 {
		return nil, fmt.Errorf("trace: stream file of %d bytes does not hold %d records", size, count)
	}
	recs := make([]Record, count)
	crc := crc32.Update(0, castagnoli, head)
	buf := make([]byte, min(streamChunk, len(recs)*streamRecordBytes+4))
	for i := 0; i < len(recs); {
		k := min(len(recs)-i, len(buf)/streamRecordBytes)
		chunk := buf[:k*streamRecordBytes]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("trace: reading stream records: %w", err)
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		for j := range recs[i : i+k] {
			b := chunk[j*streamRecordBytes : (j+1)*streamRecordBytes]
			if b[20] > 1 {
				return nil, fmt.Errorf("trace: stream record %d has write flag %d", i+j, b[20])
			}
			recs[i+j] = Record{
				PC:    binary.LittleEndian.Uint64(b[0:]),
				Addr:  binary.LittleEndian.Uint64(b[8:]),
				Gap:   binary.LittleEndian.Uint32(b[16:]),
				Write: b[20] == 1,
				Core:  b[21],
			}
		}
		i += k
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("trace: reading stream checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:4]); got != crc {
		return nil, fmt.Errorf("trace: stream checksum %08x, want %08x", got, crc)
	}
	return recs, nil
}

// WriteStreamFile stores recs at path under key in the stream file format.
// It writes a temp file beside path and renames it into place, so a reader
// sees the old file or the new one in full. It does not fsync: a file torn
// by a crash fails its CRC on load, which is a miss, not bad data.
func WriteStreamFile(path, key string, recs []Record) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = writeStream(f, key, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadStreamFile loads the stream that WriteStreamFile stored at path
// under key. It returns os.Open's error when the file does not open, and
// an error wrapping ErrCorruptStream when the file is not exactly a stream
// of at most maxRecords records under key with a matching CRC. It never
// reads the file whole: the records are its one large allocation.
func ReadStreamFile(path, key string, maxRecords int) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	recs, err := readStream(f, st.Size(), key, maxRecords)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptStream, path, err)
	}
	return recs, nil
}
