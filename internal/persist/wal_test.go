package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type walRec struct {
	op       WALOp
	key, val []byte
}

func collectWAL(t *testing.T, path string) []walRec {
	t.Helper()
	var got []walRec
	_, _, err := ReplayWAL(path, func(op WALOp, key, val []byte) error {
		got = append(got, walRec{op, append([]byte(nil), key...), append([]byte(nil), val...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return got
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []walRec{
		{WALPut, []byte("k1"), []byte("v1")},
		{WALDelete, []byte("k1"), nil},
		{WALPut, []byte(""), []byte("")}, // empty key and value are legal
		{WALPut, []byte("k2"), bytes.Repeat([]byte{7}, 500)},
	}
	for _, r := range want {
		if err := w.Append(r.op, r.key, r.val); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := collectWAL(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].op != want[i].op || !bytes.Equal(got[i].key, want[i].key) ||
			(want[i].op == WALPut && !bytes.Equal(got[i].val, want[i].val)) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestWALTornTailTruncated simulates the crash the WAL exists for: a
// final record cut mid-write. Recovery must replay every acknowledged
// record, drop the torn tail, and truncate the file so appends resume
// from a clean end.
func TestWALTornTailTruncated(t *testing.T) {
	for _, cut := range []struct {
		name     string
		tear     func(data []byte) []byte
		lastLost bool // whether the tear damages the final record itself
	}{
		{"mid-frame-header", func(d []byte) []byte { return d[:len(d)-4] }, true},
		{"mid-payload", func(d []byte) []byte { return d[:len(d)-1] }, true},
		{"crc-flipped", func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d }, true},
		// Garbage after an intact record is also a torn tail — a crash
		// mid-frame-header — but loses nothing that was acknowledged.
		{"garbage-appended", func(d []byte) []byte { return append(d, 0xDE, 0xAD) }, false},
	} {
		t.Run(cut.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			w, err := CreateWAL(path, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const acked = 10
			for i := 0; i < acked; i++ {
				if err := w.Append(WALPut, fmt.Appendf(nil, "key-%d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			// One more record that the "crash" will damage.
			if err := w.Append(WALPut, []byte("torn"), []byte("torn")); err != nil {
				t.Fatal(err)
			}
			w.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cut.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			want := acked
			if !cut.lastLost {
				want++ // the final record survived intact
			}
			replayed := 0
			w2, n, err := OpenWAL(path, WALOptions{}, func(op WALOp, key, val []byte) error {
				replayed++
				return nil
			})
			if err != nil {
				t.Fatalf("OpenWAL after tear: %v", err)
			}
			if n != want || replayed != want {
				t.Fatalf("replayed %d/%d records, want %d (only the torn record may be lost)", n, replayed, want)
			}
			// The file is truncated: appends land where the tear was, and a
			// fresh replay sees old + new records.
			if err := w2.Append(WALDelete, []byte("after-recovery"), nil); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			got := collectWAL(t, path)
			if len(got) != want+1 || got[want].op != WALDelete || string(got[want].key) != "after-recovery" {
				t.Fatalf("post-recovery log: %d records, tail %+v", len(got), got[len(got)-1])
			}
		})
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(WALPut, []byte("k"), []byte("v"))
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.Append(WALPut, []byte("k2"), []byte("v2"))
	w.Close()
	got := collectWAL(t, path)
	if len(got) != 1 || string(got[0].key) != "k2" {
		t.Fatalf("after Reset the log holds %+v", got)
	}
}

// parkingFile parks the first Sync through it until release is closed,
// closing parked once that Sync is waiting. Later Syncs pass straight
// through.
type parkingFile struct {
	*flakyFile
	used            atomic.Bool
	parked, release chan struct{}
}

func (f *parkingFile) Sync() error {
	if !f.used.Swap(true) {
		close(f.parked)
		<-f.release
	}
	return f.flakyFile.Sync()
}

// whileSyncParked calls op while a Sync's fsync is parked, requires op
// not to return before that fsync ends, and returns op's error once
// both have returned.
func whileSyncParked(t *testing.T, w *WAL, ff *flakyFile, name string, op func() error) error {
	t.Helper()
	pf := &parkingFile{flakyFile: ff, parked: make(chan struct{}), release: make(chan struct{})}
	w.f = pf
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	<-pf.parked

	var opErr error
	done := make(chan struct{})
	go func() {
		opErr = op()
		close(done)
	}()
	select {
	case <-done:
		t.Errorf("%s returned while a Sync's fsync was in flight", name)
	case <-time.After(50 * time.Millisecond):
	}
	close(pf.release)
	<-done
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return opErr
}

// TestWALSyncDuringReset: a Reset called while a Sync's fsync is in
// flight must wait for that fsync to end. Were it not to wait, the late
// fsync would mark the pre-Reset record count durable, and the next
// Append, whose own record that count covers, would be acknowledged
// with no fsync at all; here that fsync fails, so the Append must
// return its error.
func TestWALSyncDuringReset(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	for _, k := range []string{"a", "b", "c"} {
		if err := w.Append(WALPut, []byte(k), []byte("v")); err != nil {
			t.Fatalf("healthy Append: %v", err)
		}
	}
	if err := whileSyncParked(t, w, ff, "Reset", w.Reset); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	ff.failSyncs = 1
	before := ff.syncCalls
	if err := w.Append(WALPut, []byte("d"), []byte("v")); err == nil {
		t.Fatalf("the first Append after Reset was acknowledged with %d fsyncs of its own, the failing one not among them",
			ff.syncCalls-before)
	}
}

// TestWALSyncDuringClose: Close, too, waits for a Sync's fsync in
// flight before it truncates, fsyncs and closes the file.
func TestWALSyncDuringClose(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("v")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	if err := whileSyncParked(t, w, ff, "Close", w.Close); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWALGroupCommit hammers one WAL from many goroutines with fsync
// on: every append must be acknowledged, and the fsync count must come
// out well below the append count (the batching that makes group commit
// worth having). The count assertion is on durability, not timing: all
// records replay.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := w.Append(WALPut, fmt.Appendf(nil, "w%d-%d", g, i), []byte("v")); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", w.Len(), workers*perWorker)
	}
	w.Close()
	if got := collectWAL(t, path); len(got) != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", len(got), workers*perWorker)
	}
}

func TestWALOpenEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	// Missing file: created with a header, zero records replayed.
	w, n, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{}, nil)
	if err != nil || n != 0 {
		t.Fatalf("OpenWAL on missing file: n=%d err=%v", n, err)
	}
	w.Close()
	// Reopen the now header-only file.
	w, n, err = OpenWAL(filepath.Join(dir, "wal"), WALOptions{}, func(WALOp, []byte, []byte) error {
		t.Fatal("no records to replay")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("OpenWAL on empty log: n=%d err=%v", n, err)
	}
	w.Close()
}

func TestWALBadHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte("NOTAWAL!xxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, WALOptions{}, nil); err == nil {
		t.Fatal("bad magic must fail the open")
	}
}

func TestWALNoSyncStillReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWAL(path, WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(WALPut, fmt.Appendf(nil, "k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil { // manual durability point
		t.Fatal(err)
	}
	w.Close()
	if got := collectWAL(t, path); len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
}

// TestWALUnwrittenHeaderOpensEmpty opens the files a crash between the
// log's create and its header's fsync can leave, none of which ever held
// an acknowledged record: each must open as an empty log, take an
// Append, and reopen with that record. A header with a non-zero wrong
// magic is damage, not a crash of the create, and is still refused.
func TestWALUnwrittenHeaderOpensEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"8 zero bytes", make([]byte, 8)},
		{"16 zero bytes", make([]byte, walHeaderSize)},
		{"7-byte header prefix", []byte(walMagic[:7])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			mx := NewWALMetrics()
			w, n, err := OpenWAL(path, WALOptions{Metrics: mx}, nil)
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			if n != 0 || mx.ReplayTorn.Load() != 0 {
				t.Fatalf("OpenWAL replayed %d records, %d torn tails; want an empty log", n, mx.ReplayTorn.Load())
			}
			if err := w.Append(WALPut, []byte("k"), []byte("v")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			var got []string
			w, n, err = OpenWAL(path, WALOptions{}, func(op WALOp, key, val []byte) error {
				got = append(got, fmt.Sprintf("%v %s=%s", op, key, val))
				return nil
			})
			if err != nil || n != 1 || len(got) != 1 || got[0] != "Put k=v" {
				t.Fatalf("reopen: %d records %q, err %v; want [Put k=v]", n, got, err)
			}
			w.Close()
		})
	}

	path := filepath.Join(t.TempDir(), "wal")
	bad := bytes.Repeat([]byte{'x'}, walHeaderSize)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(path, WALOptions{}, nil)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "WAL") || strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("OpenWAL of a wrong magic: %v; want an ErrCorrupt that names the WAL", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, bad) {
		t.Fatal("the refused log was rewritten")
	}
}
