package persist

// The zero-filled region: while a log is open, up to walZeroChunk zero
// bytes follow its last record. These tests pin what a crash leaves
// (the zeros, maybe a torn record before them) and what Close leaves
// (the records alone, byte for byte).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// encodeWAL is the append-only encoding of recs, built from the layout
// the package comment documents rather than from the appender.
func encodeWAL(recs []walRec) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(walMagic), Version)
	out = append(out, 0, 0, 0, 0, 0, 0)
	for _, r := range recs {
		payload := []byte{byte(r.op)}
		payload = binary.AppendUvarint(payload, uint64(len(r.key)))
		payload = append(payload, r.key...)
		if r.op == WALPut {
			payload = binary.AppendUvarint(payload, uint64(len(r.val)))
			payload = append(payload, r.val...)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
		out = append(out, payload...)
	}
	return out
}

// zeroTestRecords returns n records of about 500 bytes each, Puts with
// every seventh a Delete.
func zeroTestRecords(n int) []walRec {
	recs := make([]walRec, n)
	for i := range recs {
		recs[i] = walRec{WALPut, fmt.Appendf(nil, "key-%04d", i), bytes.Repeat([]byte{byte(i) | 1}, 480+i%40)}
		if i%7 == 6 {
			recs[i] = walRec{WALDelete, recs[i].key, nil}
		}
	}
	return recs
}

// abandonedWAL appends recs to a fresh log at path and returns without
// Close, as a SIGKILL leaves it: the zero-filled region is still on
// disk. The handle is closed when the test ends.
func abandonedWAL(t *testing.T, path string, recs []walRec) *WAL {
	t.Helper()
	w, err := CreateWAL(path, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.f.Close() })
	for _, r := range recs {
		if err := w.Append(r.op, r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// requireRecords checks that got is recs, in order.
func requireRecords(t *testing.T, got, recs []walRec) {
	t.Helper()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].op != recs[i].op || !bytes.Equal(got[i].key, recs[i].key) || !bytes.Equal(got[i].val, recs[i].val) {
			t.Fatalf("record %d: %s %q (%d-byte value), want %s %q (%d-byte value)",
				i, got[i].op, got[i].key, len(got[i].val), recs[i].op, recs[i].key, len(recs[i].val))
		}
	}
}

// reopenWAL opens path through OpenWAL, collecting the replayed records,
// and returns them with the recovery's ReplayTorn count.
func reopenWAL(t *testing.T, path string) ([]walRec, int64) {
	t.Helper()
	mx := NewWALMetrics()
	var got []walRec
	w, n, err := OpenWAL(path, WALOptions{NoSync: true, Metrics: mx}, func(op WALOp, key, val []byte) error {
		got = append(got, walRec{op, bytes.Clone(key), bytes.Clone(val)})
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if n != len(got) {
		t.Fatalf("OpenWAL reported %d records, replayed %d", n, len(got))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return got, mx.ReplayTorn.Load()
}

// TestWALZeroTailAfterKill abandons a log whose appends extended the
// zero-filled region twice: every record replays in order, the zeros
// are truncated, and neither OpenWAL nor ReplayWAL calls them torn.
func TestWALZeroTailAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := zeroTestRecords(300)
	w := abandonedWAL(t, path, recs)
	end := int64(len(encodeWAL(recs)))
	if size, _ := w.Size(); size != end {
		t.Fatalf("Size = %d, want the log's end %d", size, end)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < walHeaderSize+2*walZeroChunk || st.Size() <= end {
		t.Fatalf("file is %d bytes for a %d-byte log: the region was not extended twice", st.Size(), end)
	}
	if _, torn, err := ReplayWAL(path, nil); err != nil || torn {
		t.Fatalf("ReplayWAL of the zero tail: torn=%v err=%v, want false, nil", torn, err)
	}
	got, tornCount := reopenWAL(t, path)
	requireRecords(t, got, recs)
	if tornCount != 0 {
		t.Fatalf("ReplayTorn = %d for a zero-filled tail, want 0", tornCount)
	}
	if st, err = os.Stat(path); err != nil || st.Size() != end {
		t.Fatalf("reopened file is %d bytes (err %v), want the log's end %d", st.Size(), err, end)
	}
}

// TestWALTornRecordBeforeZeros: a crash that persisted only the first
// half of the last record, with the zero-filled region after it, loses
// that record alone and counts one torn tail.
func TestWALTornRecordBeforeZeros(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	recs := zeroTestRecords(200)
	abandonedWAL(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(encodeWAL(recs))
	last := end - len(encodeWAL(recs[len(recs)-1:])) + walHeaderSize
	clear(data[last+(end-last)/2 : end]) // the half the crash lost reads as the zeros it overwrote
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, torn, err := ReplayWAL(path, nil); err != nil || !torn {
		t.Fatalf("ReplayWAL of a torn record: torn=%v err=%v, want true, nil", torn, err)
	}
	got, tornCount := reopenWAL(t, path)
	requireRecords(t, got, recs[:len(recs)-1])
	if tornCount != 1 {
		t.Fatalf("ReplayTorn = %d for a torn record, want 1", tornCount)
	}
}

// TestWALCloseMatchesAppendOnlyEncoding: a cleanly closed log holds its
// records' append-only encoding byte for byte, with no zeros after it,
// whether or not Close fsyncs and whether or not a reopen came between.
func TestWALCloseMatchesAppendOnlyEncoding(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(map[bool]string{false: "fsync-on", true: "nosync"}[noSync], func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			recs := zeroTestRecords(300)
			w, err := CreateWAL(path, WALOptions{NoSync: noSync})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:150] {
				if err := w.Append(r.op, r.key, r.val); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			requireFile(t, path, encodeWAL(recs[:150]))
			w, _, err = OpenWAL(path, WALOptions{NoSync: noSync}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[150:] {
				if err := w.Append(r.op, r.key, r.val); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			requireFile(t, path, encodeWAL(recs))
		})
	}
}

func requireFile(t *testing.T, path string, want []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		n := 0
		for n < min(len(data), len(want)) && data[n] == want[n] {
			n++
		}
		t.Fatalf("closed log is %d bytes, want %d; first difference at byte %d", len(data), len(want), n)
	}
}
