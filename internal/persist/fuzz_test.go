package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotLoad feeds arbitrary (corrupted, truncated, adversarial)
// bytes to the snapshot reader: it must return an error or a clean
// record stream — never panic, and never allocate proportionally to a
// lying length prefix (the harness's memory limit enforces that). Seeds
// cover the valid format and its mutations.
func FuzzSnapshotLoad(f *testing.F) {
	// A well-formed two-section snapshot as the structural seed.
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf, Header{Sections: 2, Seed: 7, Shards: 2, D: 3})
	if err != nil {
		f.Fatal(err)
	}
	sw.BeginSection()
	sw.Record([]byte("key-a"), []byte("val-a"), 0x1111)
	sw.Record([]byte{}, []byte{}, 0x2222)
	sw.EndSection()
	sw.BeginSection()
	sw.Record([]byte("key-b"), bytes.Repeat([]byte{9}, 300), 0x3333)
	sw.EndSection()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:headerSize])   // header only
	f.Add([]byte(snapMagic))    // magic without the rest
	f.Add([]byte{})
	// The first section's length points past the end of the file.
	past := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(past[headerSize+8:], uint64(len(valid)))
	f.Add(past)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The presizing walk reads the same bytes through io.ReaderAt: it
		// must never panic, whatever the reader makes of them.
		walked, walkErr := SnapshotRecords(bytes.NewReader(data), int64(len(data)))
		sr, err := NewSnapshotReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		records := 0
		for sr.Next() {
			k, v, _ := sr.Record()
			// Touch the slices: they must be real, in-bounds memory.
			_ = append([]byte(nil), k...)
			_ = append([]byte(nil), v...)
			records++
			if records > 1<<20 {
				t.Fatalf("reader yielded over a million records from %d input bytes", len(data))
			}
		}
		// Whenever the reader reaches a clean end, the walk agrees on
		// every record it yielded.
		if sr.Err() == nil && (walkErr != nil || walked != int64(records)) {
			t.Fatalf("reader yielded %d records cleanly; walk counted %d (err %v)", records, walked, walkErr)
		}
	})
}

// FuzzWALRecover feeds arbitrary bytes to the WAL recovery scan: it
// must replay a prefix and truncate, or reject the file — never panic.
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	w, err := CreateWAL(filepath.Join(dir, "seed"), WALOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	w.Append(WALPut, []byte("key"), []byte("val"))
	w.Append(WALDelete, []byte("key"), nil)
	w.Close()
	seed, err := os.ReadFile(filepath.Join(dir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	// A killed log keeps its zero-filled region after the last record,
	// which may itself be torn.
	zeros := make([]byte, walZeroChunk)
	f.Add(append(bytes.Clone(seed), zeros...))
	f.Add(append(bytes.Clone(seed[:len(seed)-2]), zeros...))
	f.Add([]byte(walMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		w, n, err := OpenWAL(path, WALOptions{NoSync: true}, func(op WALOp, key, val []byte) error {
			_ = append([]byte(nil), key...)
			_ = append([]byte(nil), val...)
			replayed++
			return nil
		})
		if err != nil {
			return
		}
		if n != replayed {
			t.Fatalf("OpenWAL reported %d records, replayed %d", n, replayed)
		}
		// Recovery truncated any tail: the file must now replay cleanly to
		// exactly the same records.
		w.Close()
		m, torn, err := ReplayWAL(path, nil)
		if err != nil || torn || m != n {
			t.Fatalf("post-recovery file: %d records, torn=%v, err=%v (want %d, false, nil)", m, torn, err, n)
		}
	})
}
