// Package persist is the durable storage subsystem: a versioned binary
// snapshot format and an append-only write-ahead log, both speaking the
// one currency every container in this library already trades in —
// (key bytes, value bytes, 64-bit digest) records.
//
// The digest is what makes snapshots geometry-independent. Every stored
// pair's candidate buckets derive from its digest at *any* table shape
// (the paper's one-hash discipline, and the property Mitzenmacher's
// follow-up analysis shows is a function of the digest stream rather
// than the table history), so a snapshot taken from an 8-shard,
// 1024-bucket map reloads losslessly into a 32-shard, 256-bucket one:
// loading is exactly the resize-migration path — re-placement from
// digests, never a re-hash. The only invariant that must carry across
// is the hash seed (recorded in the header) and the hasher itself.
//
// # Snapshot format
//
// All integers are little-endian; CRCs are CRC32-C (Castagnoli).
//
//	header (48 bytes):
//	  magic    [8]byte  "BADHSNP1"
//	  version  uint16   format version (1)
//	  reserved uint16   zero
//	  sections uint32   number of sections that follow
//	  seed     uint64   hash seed the digests were computed under
//	  shards   uint32   ┐ geometry at write time, informational only —
//	  buckets  uint32   │ the reader places records at whatever geometry
//	  slots    uint32   │ the new process chose (0 = not applicable /
//	  d        uint32   │ varies per shard)
//	  stash    uint32   ┘
//	  crc      uint32   CRC32-C of the 44 bytes above
//
//	section (one per shard for sharded maps, one total otherwise):
//	  count    uint64   records in this section
//	  length   uint64   payload byte length
//	  payload  [length]byte
//	  crc      uint32   CRC32-C of the 16-byte section header + payload
//
//	record (within a payload):
//	  keyLen uvarint | key bytes | valLen uvarint | val bytes | digest uint64
//
// Sections exist so a sharded map can stream one shard at a time under
// that shard's read lock alone: the writer buffers a single section in
// memory (1/shards of the data), never the whole snapshot. The reader
// buffers no section: it streams records through one 64 KiB block, and
// a record's key and value are views of the block, valid until the next
// record is read. It folds a section's bytes into the section's CRC as
// it parses them and checks the CRC before it yields the section's last
// record, so the records before it are yielded unverified: a caller
// must discard everything a read yielded once the read fails.
//
// # Write-ahead log
//
// The WAL is an append-only sequence of CRC-framed Put/Delete records
// (see wal.go) with group-commit fsync batching; recovery replays it
// onto the latest snapshot and truncates a torn tail, so a crash loses
// only writes that were never acknowledged.
//
// The readers trust nothing: every length prefix is bounded before any
// allocation, so a corrupted or adversarial file makes a snapshot read
// or a WAL replay return an error, never panic. The snapshot reader
// grows its block only for a record larger than the block, and only as
// that record's bytes arrive.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Format constants.
const (
	snapMagic = "BADHSNP1"
	// Version is the current snapshot format version.
	Version = 1

	headerSize        = 48
	sectionHeaderSize = 16

	// MaxRecordBytes bounds a single key or value encoding. The reader
	// rejects length prefixes beyond it before allocating, so a corrupt
	// file cannot demand an absurd buffer.
	MaxRecordBytes = 1 << 24

	// readBlock is the size of the block a SnapshotReader reads through.
	// A record larger than it grows the block, doubling, and only once
	// the record's bytes fill it: a lying length costs nothing beyond
	// the block until the stream has delivered a block of the record, and
	// never more than twice the record bytes it delivered.
	readBlock = 64 << 10
)

// castagnoli is the CRC32-C table shared by snapshots and the WAL.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps all integrity failures (bad magic, CRC mismatch,
// malformed record, truncated section) so callers can distinguish a
// damaged file from an I/O error with errors.Is.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// Header identifies a snapshot and the hashing context its digests were
// computed under. Seed is load-bearing: a reader must install it (with
// the same hasher) for the stored digests to keep matching the keys.
// The geometry fields describe the writer's shape for diagnostics only —
// the whole point of the format is that the reader may place records at
// any other shape.
type Header struct {
	Version  uint16
	Sections uint32
	Seed     uint64
	Shards   uint32 // geometry at write time (informational; 0 = n/a)
	Buckets  uint32
	Slots    uint32
	D        uint32
	Stash    uint32
}

// SnapshotWriter emits the snapshot format section by section. Usage:
//
//	sw, _ := NewSnapshotWriter(w, Header{Sections: n, Seed: seed})
//	for each section:
//	    sw.BeginSection()
//	    for each pair: sw.Record(keyBytes, valBytes, digest)
//	    sw.EndSection()
//	err := sw.Close()
//
// Record performs no allocation once the section buffer has warmed up
// (it appends to a buffer reused across sections), which is what lets a
// sharded map hold a shard's read lock for exactly the time it takes to
// encode that shard's records.
type SnapshotWriter struct {
	w        io.Writer
	buf      []byte // current section payload
	count    uint64 // records in the current section
	declared uint32
	written  uint32
	open     bool
	err      error
}

// NewSnapshotWriter writes the header and returns a writer expecting
// exactly h.Sections sections. h.Version is forced to the current
// format version.
func NewSnapshotWriter(w io.Writer, h Header) (*SnapshotWriter, error) {
	var hdr [headerSize]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], h.Sections)
	binary.LittleEndian.PutUint64(hdr[16:], h.Seed)
	binary.LittleEndian.PutUint32(hdr[24:], h.Shards)
	binary.LittleEndian.PutUint32(hdr[28:], h.Buckets)
	binary.LittleEndian.PutUint32(hdr[32:], h.Slots)
	binary.LittleEndian.PutUint32(hdr[36:], h.D)
	binary.LittleEndian.PutUint32(hdr[40:], h.Stash)
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(hdr[:44], castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &SnapshotWriter{w: w, declared: h.Sections}, nil
}

// BeginSection starts the next section.
func (sw *SnapshotWriter) BeginSection() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.open {
		return sw.fail(fmt.Errorf("persist: BeginSection inside an open section"))
	}
	if sw.written == sw.declared {
		return sw.fail(fmt.Errorf("persist: more sections than the declared %d", sw.declared))
	}
	sw.open = true
	sw.buf = sw.buf[:0]
	sw.count = 0
	return nil
}

// Record appends one (key, val, digest) record to the open section. key
// and val may alias caller scratch buffers; their bytes are copied here.
func (sw *SnapshotWriter) Record(key, val []byte, digest uint64) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.open {
		return sw.fail(fmt.Errorf("persist: Record outside a section"))
	}
	if len(key) > MaxRecordBytes || len(val) > MaxRecordBytes {
		return sw.fail(fmt.Errorf("persist: record of %d/%d bytes exceeds MaxRecordBytes", len(key), len(val)))
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(key)))
	sw.buf = append(sw.buf, key...)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(val)))
	sw.buf = append(sw.buf, val...)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, digest)
	sw.count++
	return nil
}

// EndSection frames and flushes the open section: header, payload, CRC.
func (sw *SnapshotWriter) EndSection() error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.open {
		return sw.fail(fmt.Errorf("persist: EndSection outside a section"))
	}
	sw.open = false
	var hdr [sectionHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], sw.count)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(sw.buf)))
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, sw.buf)
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.w.Write(sw.buf); err != nil {
		return sw.fail(err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	if _, err := sw.w.Write(tail[:]); err != nil {
		return sw.fail(err)
	}
	sw.written++
	return nil
}

// Close verifies every declared section was written. It does not close
// the underlying writer.
func (sw *SnapshotWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.open {
		return sw.fail(fmt.Errorf("persist: Close inside an open section"))
	}
	if sw.written != sw.declared {
		return sw.fail(fmt.Errorf("persist: wrote %d of %d declared sections", sw.written, sw.declared))
	}
	return nil
}

func (sw *SnapshotWriter) fail(err error) error {
	sw.err = err
	return err
}

// SnapshotReader streams a snapshot back record by record:
//
//	sr, err := NewSnapshotReader(r)
//	for sr.Next() {
//	    key, val, digest := sr.Record()
//	    ...
//	}
//	err = sr.Err()
//
// It reads through one block of readBlock bytes, reused for the whole
// stream and grown only while a record larger than it arrives, so it
// holds one block, or its largest record, whatever the section size. Key
// and value slices point into the block and stay valid until the next
// Next call. A section's CRC is updated as its bytes are parsed and
// checked before Next yields the section's last record, so the records
// before it are yielded unverified: a read whose Err is non-nil must be
// discarded whole, every record it yielded included. Err is nil only
// after a clean read of every declared section; any corruption
// satisfies errors.Is(err, ErrCorrupt).
type SnapshotReader struct {
	r       io.Reader
	hdr     Header
	buf     []byte // the block: buf[off:end] is read and not yet parsed
	off     int
	end     int
	summed  int    // buf[summed:off] is parsed payload the CRC has not yet covered
	crc     uint32 // the current section's CRC up to buf[summed]
	left    uint64 // records remaining in the current section
	rest    uint64 // payload bytes of the current section not yet parsed
	section int    // current section index (-1 before the first)
	key     []byte
	val     []byte
	digest  uint64
	err     error
}

// NewSnapshotReader reads and verifies the header.
func NewSnapshotReader(r io.Reader) (*SnapshotReader, error) {
	sr := &SnapshotReader{r: r, buf: make([]byte, readBlock), section: -1}
	if err := sr.fill(headerSize); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	h, err := parseHeader((*[headerSize]byte)(sr.buf[:headerSize]))
	if err != nil {
		return nil, err
	}
	sr.off, sr.summed = headerSize, headerSize
	sr.hdr = h
	return sr, nil
}

// parseHeader verifies a snapshot header's magic, CRC and version and
// decodes it.
func parseHeader(hdr *[headerSize]byte) (Header, error) {
	if string(hdr[:8]) != snapMagic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[44:]), crc32.Checksum(hdr[:44], castagnoli); got != want {
		return Header{}, fmt.Errorf("%w: header CRC %#x, want %#x", ErrCorrupt, got, want)
	}
	h := Header{
		Version:  binary.LittleEndian.Uint16(hdr[8:]),
		Sections: binary.LittleEndian.Uint32(hdr[12:]),
		Seed:     binary.LittleEndian.Uint64(hdr[16:]),
		Shards:   binary.LittleEndian.Uint32(hdr[24:]),
		Buckets:  binary.LittleEndian.Uint32(hdr[28:]),
		Slots:    binary.LittleEndian.Uint32(hdr[32:]),
		D:        binary.LittleEndian.Uint32(hdr[36:]),
		Stash:    binary.LittleEndian.Uint32(hdr[40:]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: version %d, reader speaks %d", ErrCorrupt, h.Version, Version)
	}
	return h, nil
}

// parseSectionHeader decodes a section header and bounds its claims
// before anything trusts them. A record is at least 2 length bytes + 8
// digest bytes, so a count that could not fit the payload is corruption;
// an empty section must carry an empty payload (nothing would ever parse
// it). section is the index errors name.
func parseSectionHeader(hdr *[sectionHeaderSize]byte, section int) (count, length uint64, err error) {
	count = binary.LittleEndian.Uint64(hdr[0:])
	length = binary.LittleEndian.Uint64(hdr[8:])
	if count > length/10 || (count == 0 && length != 0) {
		return 0, 0, fmt.Errorf("%w: section %d claims %d records in %d bytes", ErrCorrupt, section, count, length)
	}
	return count, length, nil
}

// SnapshotRecords sums the record counts declared by the section headers
// of the snapshot in r, which is size bytes long, without reading any
// payload: one ReadAt for the file header and one per section header,
// each offset checked against size first. A loader calls it to size its
// table before streaming the same file through a SnapshotReader, which
// still verifies every CRC this walk skips. Each section is bounded as
// the reader bounds it — its count fits its length, its payload and CRC
// end inside the file — so a lying header can claim at most size/10
// records. Bytes after the last declared section are ignored, as the
// reader ignores them.
//
//repro:boundedinput
func SnapshotRecords(r io.ReaderAt, size int64) (int64, error) {
	var hdr [headerSize]byte
	if size < headerSize {
		return 0, fmt.Errorf("%w: %d bytes cannot hold a header", ErrCorrupt, size)
	}
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, headerSize), hdr[:]); err != nil {
		return 0, err
	}
	h, err := parseHeader(&hdr)
	if err != nil {
		return 0, err
	}
	var total int64
	off := int64(headerSize)
	for s := 0; s < int(h.Sections); s++ {
		if size-off < sectionHeaderSize {
			return 0, fmt.Errorf("%w: section %d header starts %d bytes before the end of the file", ErrCorrupt, s, size-off)
		}
		var sec [sectionHeaderSize]byte
		if _, err := io.ReadFull(io.NewSectionReader(r, off, sectionHeaderSize), sec[:]); err != nil {
			return 0, err
		}
		off += sectionHeaderSize
		count, length, err := parseSectionHeader(&sec, s)
		if err != nil {
			return 0, err
		}
		if rest := uint64(size - off); rest < 4 || length > rest-4 {
			return 0, fmt.Errorf("%w: section %d payload of %d bytes runs past the end of the file", ErrCorrupt, s, length)
		}
		off += int64(length) + 4
		total += int64(count)
	}
	return total, nil
}

// Header returns the verified snapshot header.
func (sr *SnapshotReader) Header() Header { return sr.hdr }

// Section returns the index of the section the current record came from.
func (sr *SnapshotReader) Section() int { return sr.section }

// Next advances to the next record, reading the next section's header
// when the current one is exhausted, and checking a section's CRC before
// it yields the section's last record. It returns false at the end of
// the snapshot or on error — check Err.
func (sr *SnapshotReader) Next() bool {
	if sr.err != nil {
		return false
	}
	for sr.left == 0 {
		if sr.section+1 == int(sr.hdr.Sections) {
			return false // all sections consumed; the format ends here
		}
		if !sr.beginSection() || (sr.left == 0 && !sr.endSection()) {
			return false
		}
	}
	sr.left--
	return sr.parseRecord() && (sr.left > 0 || sr.endSection())
}

// Record returns the current record. Key and val are views of the
// reader's block, valid until the next Next call.
func (sr *SnapshotReader) Record() (key, val []byte, digest uint64) {
	return sr.key, sr.val, sr.digest
}

// Err returns the first error encountered, or nil after a clean read.
func (sr *SnapshotReader) Err() error { return sr.err }

// fail records a corruption of the current section and returns false.
func (sr *SnapshotReader) fail(format string, args ...any) bool {
	sr.err = fmt.Errorf("%w: section %d: %s", ErrCorrupt, sr.section, fmt.Sprintf(format, args...))
	return false
}

// fill makes n bytes past off readable in the block, reading from the
// stream as much as the block has room for. When the n bytes would run
// past the block's end, it first folds the parsed payload into the CRC
// and moves the unparsed bytes to the front. Only when those bytes fill
// the whole block, a record larger than it arriving, does it grow the
// block, doubling and never past n: the block grows only as the
// record's bytes arrive, however large a length the stream claims.
//
//repro:boundedinput
func (sr *SnapshotReader) fill(n int) error {
	for sr.end-sr.off < n {
		if sr.off > 0 && sr.off+n > len(sr.buf) {
			sr.crc = crc32.Update(sr.crc, castagnoli, sr.buf[sr.summed:sr.off])
			sr.end = copy(sr.buf, sr.buf[sr.off:sr.end])
			sr.off, sr.summed = 0, 0
		}
		if sr.end == len(sr.buf) {
			buf := make([]byte, min(n, 2*len(sr.buf)))
			copy(buf, sr.buf)
			sr.buf = buf
		}
		k, err := io.ReadAtLeast(sr.r, sr.buf[sr.end:], min(n-(sr.end-sr.off), len(sr.buf)-sr.end))
		sr.end += k
		if err == io.EOF {
			return io.ErrUnexpectedEOF // the stream ended short of n bytes
		} else if err != nil {
			return err
		}
	}
	return nil
}

// beginSection reads and bounds the next section's header and starts
// its CRC.
//
//repro:boundedinput
func (sr *SnapshotReader) beginSection() bool {
	sr.section++
	if err := sr.fill(sectionHeaderSize); err != nil {
		return sr.fail("header: %v", err)
	}
	hdr := (*[sectionHeaderSize]byte)(sr.buf[sr.off : sr.off+sectionHeaderSize])
	// Reject implausible counts before trusting `length` anywhere.
	count, length, err := parseSectionHeader(hdr, sr.section)
	if err != nil {
		sr.err = err
		return false
	}
	sr.crc = crc32.Checksum(hdr[:], castagnoli)
	sr.off += sectionHeaderSize
	sr.summed = sr.off
	sr.left, sr.rest = count, length
	return true
}

// endSection checks, after the section's last record, that the records
// spanned the whole payload and that the CRC following it matches.
// parseRecord has made the CRC's bytes readable with the last record's,
// so the fill here never moves the bytes that record's views point to.
func (sr *SnapshotReader) endSection() bool {
	if sr.rest != 0 {
		return sr.fail("%d trailing payload bytes", sr.rest)
	}
	if err := sr.fill(4); err != nil {
		return sr.fail("CRC: %v", err)
	}
	crc := crc32.Update(sr.crc, castagnoli, sr.buf[sr.summed:sr.off])
	if got := binary.LittleEndian.Uint32(sr.buf[sr.off:]); got != crc {
		return sr.fail("CRC %#x, want %#x", got, crc)
	}
	sr.off += 4
	sr.summed = sr.off
	return true
}

// parseRecord decodes the next record of the current section. It reads
// the record's length prefixes first, bounds the record by the
// section's unparsed payload, and only then fills the block with the
// whole record (and, for the section's last record, the CRC after it),
// so the key and value views share one fill and no later fill moves
// them.
//
//repro:boundedinput
func (sr *SnapshotReader) parseRecord() bool {
	keyLen, at, ok := sr.parseLen(0)
	if !ok {
		return false
	}
	if keyLen > sr.rest-uint64(at) {
		return sr.fail("record overruns payload")
	}
	keyAt := at
	at += int(keyLen)
	valLen, w, ok := sr.parseLen(at)
	if !ok {
		return false
	}
	at += w
	if valLen+8 > sr.rest-uint64(at) {
		return sr.fail("record overruns payload")
	}
	valAt := at
	size := at + int(valLen) + 8
	tail := 0
	if sr.left == 0 {
		tail = 4 // the section's CRC
	}
	if sr.end-sr.off < size+tail {
		if err := sr.fill(size + tail); err != nil {
			return sr.fail("payload: %v", err)
		}
	}
	rec := sr.buf[sr.off : sr.off+size]
	sr.key = rec[keyAt : keyAt+int(keyLen)]
	sr.val = rec[valAt : valAt+int(valLen)]
	sr.digest = binary.LittleEndian.Uint64(rec[size-8:])
	sr.off += size
	sr.rest -= uint64(size)
	return true
}

// parseLen decodes the length prefix at offset at of the current record
// and bounds it by MaxRecordBytes, returning it and its width. It reads
// at most the section's unparsed payload, so a prefix cannot run into
// the bytes after it.
//
//repro:boundedinput
func (sr *SnapshotReader) parseLen(at int) (n uint64, w int, ok bool) {
	span := at + int(min(binary.MaxVarintLen64, sr.rest-uint64(at)))
	if sr.end-sr.off < span {
		if err := sr.fill(span); err != nil {
			return 0, 0, sr.fail("payload: %v", err)
		}
	}
	n, w = binary.Uvarint(sr.buf[sr.off+at : sr.off+span])
	if w <= 0 || n > MaxRecordBytes {
		return 0, 0, sr.fail("bad length prefix")
	}
	return n, w, true
}
