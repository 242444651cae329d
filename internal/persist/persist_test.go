package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// writeSnapshot builds a snapshot with the given sections of (key, val,
// digest) records.
type rec struct {
	key, val []byte
	digest   uint64
}

func writeSnapshot(t *testing.T, h Header, sections [][]rec) []byte {
	t.Helper()
	var buf bytes.Buffer
	h.Sections = uint32(len(sections))
	sw, err := NewSnapshotWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewSnapshotWriter: %v", err)
	}
	for _, sec := range sections {
		if err := sw.BeginSection(); err != nil {
			t.Fatalf("BeginSection: %v", err)
		}
		for _, r := range sec {
			if err := sw.Record(r.key, r.val, r.digest); err != nil {
				t.Fatalf("Record: %v", err)
			}
		}
		if err := sw.EndSection(); err != nil {
			t.Fatalf("EndSection: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func readAll(data []byte) (Header, [][]rec, error) {
	sr, err := NewSnapshotReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, err
	}
	sections := make([][]rec, sr.Header().Sections)
	for sr.Next() {
		k, v, d := sr.Record()
		sections[sr.Section()] = append(sections[sr.Section()],
			rec{key: append([]byte(nil), k...), val: append([]byte(nil), v...), digest: d})
	}
	return sr.Header(), sections, sr.Err()
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := [][]rec{
		{
			{key: []byte("alpha"), val: []byte{1, 2, 3}, digest: 0xDEADBEEFCAFEF00D},
			{key: []byte{}, val: []byte{}, digest: 0}, // empty key and value are legal
		},
		{}, // empty section
		{
			{key: bytes.Repeat([]byte{0xAB}, 1000), val: []byte("v"), digest: 42},
		},
	}
	h := Header{Seed: 7, Shards: 3, Buckets: 64, Slots: 4, D: 3, Stash: 32}
	data := writeSnapshot(t, h, in)

	got, sections, err := readAll(data)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Seed != 7 || got.Sections != 3 || got.Shards != 3 || got.Buckets != 64 ||
		got.Slots != 4 || got.D != 3 || got.Stash != 32 || got.Version != Version {
		t.Fatalf("header round trip: %+v", got)
	}
	if len(sections) != len(in) {
		t.Fatalf("sections: %d != %d", len(sections), len(in))
	}
	for i := range in {
		if len(sections[i]) != len(in[i]) {
			t.Fatalf("section %d: %d records, want %d", i, len(sections[i]), len(in[i]))
		}
		for j := range in[i] {
			g, w := sections[i][j], in[i][j]
			if !bytes.Equal(g.key, w.key) || !bytes.Equal(g.val, w.val) || g.digest != w.digest {
				t.Fatalf("section %d record %d: %+v != %+v", i, j, g, w)
			}
		}
	}

	// A record's views stay valid until the next Next: each one still
	// reads its record's bytes when the next record is asked for.
	sr, err := NewSnapshotReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var prev *rec
	var want []rec
	for _, sec := range in {
		want = append(want, sec...)
	}
	for i := 0; ; i++ {
		more := prev == nil || (bytes.Equal(prev.key, want[i-1].key) && bytes.Equal(prev.val, want[i-1].val))
		if !more {
			t.Fatalf("record %d: view reads %+v before the next Next, want %+v", i-1, *prev, want[i-1])
		}
		if !sr.Next() {
			break
		}
		k, v, d := sr.Record()
		prev = &rec{key: k, val: v, digest: d}
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}

	// A section's CRC is checked before its last record is yielded: with
	// a digest byte of the last record of section 0 flipped, Next fails
	// where that record would have come, after the first.
	bad := bytes.Clone(data)
	bad[headerSize+sectionHeaderSize+int(binary.LittleEndian.Uint64(data[headerSize+8:]))-1] ^= 1
	sr, err = NewSnapshotReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	yielded := 0
	for sr.Next() {
		yielded++
	}
	if yielded != len(in[0])-1 || !errors.Is(sr.Err(), ErrCorrupt) {
		t.Fatalf("section 0's CRC fails after %d records yielded (err %v); want %d and ErrCorrupt", yielded, sr.Err(), len(in[0])-1)
	}
}

func TestSnapshotWriterSectionDiscipline(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewSnapshotWriter(&buf, Header{Sections: 2})
	if err := sw.Record(nil, nil, 0); err == nil {
		t.Fatal("Record outside a section must fail")
	}
	sw, _ = NewSnapshotWriter(&buf, Header{Sections: 1})
	sw.BeginSection()
	sw.EndSection()
	if err := sw.BeginSection(); err == nil {
		t.Fatal("more sections than declared must fail")
	}
	sw, _ = NewSnapshotWriter(&buf, Header{Sections: 2})
	sw.BeginSection()
	sw.EndSection()
	if err := sw.Close(); err == nil {
		t.Fatal("Close with missing sections must fail")
	}
}

// TestSnapshotCorruptionDetected flips every byte of a small snapshot in
// turn: the reader must either error (the common case) or — for bytes in
// the informational header geometry it does not validate — still never
// deliver a record different from what was written.
func TestSnapshotCorruptionDetected(t *testing.T) {
	in := [][]rec{{
		{key: []byte("key-a"), val: []byte("val-a"), digest: 1111},
		{key: []byte("key-b"), val: []byte("val-b"), digest: 2222},
	}}
	data := writeSnapshot(t, Header{Seed: 3}, in)
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x5A
		_, sections, err := readAll(corrupt)
		if err == nil {
			// The flip must have been caught by a CRC... which covers every
			// byte of this format, so reaching here is a failure.
			t.Fatalf("flipping byte %d went undetected (read %d sections)", i, len(sections))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipping byte %d: error %v is not ErrCorrupt", i, err)
		}
	}
}

func TestSnapshotTruncationDetected(t *testing.T) {
	in := [][]rec{{{key: []byte("k"), val: []byte("v"), digest: 9}}}
	data := writeSnapshot(t, Header{}, in)
	for n := 0; n < len(data); n++ {
		if _, _, err := readAll(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v is not ErrCorrupt", n, err)
		}
	}
}

// TestSnapshotLyingLengthsBounded hand-crafts section headers with
// absurd counts/lengths: the reader must reject them without allocating
// gigabytes (enforced by the count/length consistency check and the
// chunked payload reads — a panic or OOM here fails the test run).
func TestSnapshotLyingLengthsBounded(t *testing.T) {
	base := writeSnapshot(t, Header{}, [][]rec{{{key: []byte("k"), val: []byte("v"), digest: 9}}})
	for _, mut := range []struct {
		name   string
		count  uint64
		length uint64
	}{
		{"huge-count", 1 << 60, 12},
		{"huge-length", 1, 1 << 60},
		{"both-huge", 1 << 60, 1 << 62},
		{"count-over-payload", 1 << 20, 12},
	} {
		data := append([]byte(nil), base...)
		binary.LittleEndian.PutUint64(data[headerSize:], mut.count)
		binary.LittleEndian.PutUint64(data[headerSize+8:], mut.length)
		if _, _, err := readAll(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v is not ErrCorrupt", mut.name, err)
		}
	}

	// A short file whose first key claims MaxRecordBytes, in a section
	// long enough to hold it: the block is never full, so it never grows.
	short := make([]byte, headerSize, 4<<10)
	copy(short, base[:headerSize])
	short = binary.LittleEndian.AppendUint64(short, 1)
	short = binary.LittleEndian.AppendUint64(short, 2*MaxRecordBytes)
	short = binary.AppendUvarint(short, MaxRecordBytes)
	short = append(short, bytes.Repeat([]byte{7}, cap(short)-len(short))...)
	var err error
	if n := allocated(func() { _, _, err = readAll(short) }); !errors.Is(err, ErrCorrupt) || n > uint64(len(short))+readBlock {
		t.Fatalf("a %d-byte file claiming a %d-byte key: %d bytes allocated, err %v; want at most %d and ErrCorrupt",
			len(short), MaxRecordBytes, n, err, len(short)+readBlock)
	}
}

// allocated returns the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotReaderMemoryBounded: reading a section allocates the
// reader's block and nothing that grows with the section.
func TestSnapshotReaderMemoryBounded(t *testing.T) {
	const records = 1 << 17
	sec := make([]rec, records)
	for i := range sec {
		sec[i] = rec{key: fmt.Appendf(nil, "key-%016x", i), val: bytes.Repeat([]byte{byte(i)}, 7+i%9), digest: uint64(i)}
	}
	data := writeSnapshot(t, Header{Seed: 1}, [][]rec{sec})
	if payload := binary.LittleEndian.Uint64(data[headerSize+8:]); payload < 4<<20 {
		t.Fatalf("payload of %d bytes, want at least 4 MiB", payload)
	}
	n, got := 0, uint64(0)
	var err error
	got = allocated(func() {
		var sr *SnapshotReader
		if sr, err = NewSnapshotReader(bytes.NewReader(data)); err != nil {
			return
		}
		for sr.Next() {
			n++
		}
		err = sr.Err()
	})
	if err != nil || n != records {
		t.Fatalf("read %d records, err %v", n, err)
	}
	if got >= 2*readBlock {
		t.Fatalf("reading a %d-byte section allocated %d bytes, want under two %d-byte blocks", len(data), got, readBlock)
	}
}

// TestSnapshotLargeSectionsRoundTrip reads back sections many blocks
// long, whose records straddle block boundaries, one of whose records is
// larger than the block, through readers that deliver short reads.
func TestSnapshotLargeSectionsRoundTrip(t *testing.T) {
	var in [][]rec
	for s := 0; s < 3; s++ {
		var sec []rec
		for i := 0; i < 9000; i++ {
			sec = append(sec, rec{key: fmt.Appendf(nil, "s%d-k%d", s, i), val: bytes.Repeat([]byte{byte(i)}, i*37%101), digest: uint64(s<<32 | i)})
		}
		in = append(in, sec)
	}
	huge := bytes.Repeat([]byte("0123456789abcdef"), 3*readBlock/16+5)
	in[1] = append(in[1][:4000], append([]rec{{key: []byte("huge"), val: huge, digest: 77}}, in[1][4000:]...)...)
	in[2] = append(in[2], rec{key: huge[:readBlock+3], val: []byte("last"), digest: 78})
	data := writeSnapshot(t, Header{Seed: 2}, in)
	for _, r := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	} {
		sr, err := NewSnapshotReader(r.wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		s, i := 0, 0
		for sr.Next() {
			for i == len(in[s]) {
				s, i = s+1, 0
			}
			k, v, d := sr.Record()
			if w := in[s][i]; sr.Section() != s || !bytes.Equal(k, w.key) || !bytes.Equal(v, w.val) || d != w.digest {
				t.Fatalf("%s: section %d record %d: got (%d, %.20q, %d bytes, %d), want (%d, %.20q, %d bytes, %d)",
					r.name, s, i, sr.Section(), k, len(v), d, s, w.key, len(w.val), w.digest)
			}
			i++
		}
		if err := sr.Err(); err != nil || s != len(in)-1 || i != len(in[s]) {
			t.Fatalf("%s: stopped at section %d record %d: %v", r.name, s, i, err)
		}
	}
}

func TestSnapshotRejectsOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewSnapshotWriter(&buf, Header{Sections: 1})
	sw.BeginSection()
	if err := sw.Record(make([]byte, MaxRecordBytes+1), nil, 0); err == nil {
		t.Fatal("oversized key must be rejected at write time")
	}
}

func TestSnapshotWriterRecordAllocs(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewSnapshotWriter(&buf, Header{Sections: 1})
	sw.BeginSection()
	key := []byte("0123456789abcdef")
	val := []byte("fedcba9876543210")
	// Warm the section buffer past its growth phase.
	for i := 0; i < 4096; i++ {
		sw.Record(key, val, uint64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sw.Record(key, val, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The occasional section-buffer doubling amortizes to well below one
	// allocation per record; steady state is zero.
	if allocs > 0.01 {
		t.Fatalf("Record allocates %.3f times per call, want 0", allocs)
	}
}

func TestSnapshotEmptyAndManySections(t *testing.T) {
	// Zero sections: header-only snapshot.
	data := writeSnapshot(t, Header{Seed: 1}, nil)
	h, sections, err := readAll(data)
	if err != nil || h.Sections != 0 || len(sections) != 0 {
		t.Fatalf("empty snapshot: %+v, %v, %v", h, sections, err)
	}
	// Many sections with one record each (the sharded-map shape).
	in := make([][]rec, 64)
	for i := range in {
		in[i] = []rec{{key: fmt.Appendf(nil, "key-%d", i), val: []byte("v"), digest: uint64(i)}}
	}
	_, sections, err = readAll(writeSnapshot(t, Header{}, in))
	if err != nil || len(sections) != 64 {
		t.Fatalf("64 sections: %d, %v", len(sections), err)
	}
	for i := range sections {
		if len(sections[i]) != 1 || sections[i][0].digest != uint64(i) {
			t.Fatalf("section %d: %+v", i, sections[i])
		}
	}
}

func TestSnapshotTrailingGarbageIgnored(t *testing.T) {
	// The format is self-delimiting: bytes after the last declared
	// section are not the reader's business (a stream may carry more).
	data := writeSnapshot(t, Header{}, [][]rec{{{key: []byte("k"), val: []byte("v"), digest: 9}}})
	data = append(data, 0xFF, 0xEE, 0xDD)
	if _, _, err := readAll(data); err != nil {
		t.Fatalf("trailing bytes after the declared sections: %v", err)
	}
}

// TestSnapshotRecords pins the presizing walk against a written snapshot:
// it counts every section's records (an empty section included) without
// reading payloads, and rejects a file cut short anywhere inside its
// sections.
func TestSnapshotRecords(t *testing.T) {
	r := func(i int) rec { return rec{key: []byte{byte(i)}, val: []byte("v"), digest: uint64(i)} }
	data := writeSnapshot(t, Header{Seed: 1}, [][]rec{{r(1), r(2), r(3)}, {}, {r(4), r(5)}})
	if n, err := SnapshotRecords(bytes.NewReader(data), int64(len(data))); err != nil || n != 5 {
		t.Fatalf("walk = (%d, %v), want (5, nil)", n, err)
	}
	for _, cut := range []int{1, 4, 5, len(data) - headerSize - 1, len(data) - headerSize + 1} {
		short := data[:len(data)-cut]
		if _, err := SnapshotRecords(bytes.NewReader(short), int64(len(short))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("walk over a file missing its last %d bytes: err %v, want ErrCorrupt", cut, err)
		}
	}
}
