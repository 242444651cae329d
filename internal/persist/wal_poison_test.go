package persist

// Regression tests for the sticky-error ("poisoning") contract: a write
// or fsync failure anywhere — a record's write or the zero-fill ahead of
// it, the fsync that commit issues for Append's group commit or for a
// manual Sync, Reset's truncate or fsync, Close's — must make every
// subsequent Append and Sync fail. The kernel may have dropped the
// dirty pages a failed fsync could not write, and a later "successful"
// fsync does not bring them back; a failed write leaves bytes the next
// recovery truncates together with every record after them. The WAL
// keeps one sticky error, err, which only poison stores and only a
// successful Reset clears. The tests date from when Sync returned a
// failed fsync without poisoning (a later Append could acknowledge
// durability after a known-lost fsync) and a failed Reset left the
// WAL's counters disagreeing with its bytes without poisoning anything.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flakyFile wraps a real file and fails WriteAt, Sync and/or Truncate
// on demand: the shim the poisoning tests inject through the walFile
// seam.
type flakyFile struct {
	*os.File
	failSyncs     int // fail this many Sync calls, then succeed again
	failTruncates int
	failWriteAts  int
	syncCalls     int
	failedWriteAt int // the length of the last WriteAt that failed
	errSync       error
	errTruncate   error
	errWriteAt    error
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.failWriteAts > 0 {
		f.failWriteAts--
		f.failedWriteAt = len(p)
		return 0, f.errWriteAt
	}
	return f.File.WriteAt(p, off)
}

func (f *flakyFile) Sync() error {
	f.syncCalls++
	if f.failSyncs > 0 {
		f.failSyncs--
		return f.errSync
	}
	return f.File.Sync()
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncates > 0 {
		f.failTruncates--
		return f.errTruncate
	}
	return f.File.Truncate(size)
}

// newFlakyWAL builds a WAL over a flakyFile in a fresh temp dir, header
// already written (with the shim healthy, so construction never trips
// the injected failures).
func newFlakyWAL(t *testing.T, opts WALOptions) (*WAL, *flakyFile) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "wal"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: f, errSync: errors.New("injected fsync failure"),
		errTruncate: errors.New("injected truncate failure"), errWriteAt: errors.New("injected write failure")}
	w := newWAL(ff, opts)
	if err := w.writeHeader(); err != nil {
		t.Fatalf("writeHeader: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return w, ff
}

// requirePoisoned asserts that every durability entry point now fails,
// even though the underlying file has healed.
func requirePoisoned(t *testing.T, w *WAL, context string) {
	t.Helper()
	if err := w.Append(WALPut, []byte("k"), []byte("v")); err == nil {
		t.Fatalf("%s: Append succeeded on a poisoned WAL", context)
	}
	if err := w.Sync(); err == nil {
		t.Fatalf("%s: Sync succeeded on a poisoned WAL", context)
	}
}

// TestSyncFailurePoisonsWAL is the core regression: a failed manual
// Sync must stick. Pre-fix, the error was returned but not recorded, so
// the very next Append (whose own fsync succeeds) acknowledged
// durability across the hole.
func TestSyncFailurePoisonsWAL(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(map[bool]string{false: "fsync-on", true: "nosync"}[noSync], func(t *testing.T) {
			w, ff := newFlakyWAL(t, WALOptions{NoSync: noSync})
			if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
				t.Fatalf("healthy Append: %v", err)
			}
			ff.failSyncs = 1 // exactly one failure; the file is healthy afterwards
			if err := w.Sync(); err == nil {
				t.Fatal("Sync with a failing fsync returned nil")
			}
			requirePoisoned(t, w, "after failed Sync")
			requirePoisoned(t, w, "after failed Sync, second round")
		})
	}
}

// TestAppendFsyncFailurePoisonsWAL pins the contract group commit
// enforces: a group-commit fsync failure refuses all later appends even
// after the device heals.
func TestAppendFsyncFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	ff.failSyncs = 1
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err == nil {
		t.Fatal("Append with a failing fsync returned nil")
	}
	requirePoisoned(t, w, "after failed Append fsync")
}

// TestResetTruncateFailurePoisonsWAL: a Reset whose truncate fails
// leaves bytes on disk that the WAL's counters no longer describe —
// appends after it would be silently discarded by the next recovery's
// torn-tail scan, so they must be refused. Pre-fix, Reset returned the
// error without poisoning.
func TestResetTruncateFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	ff.failTruncates = 1
	if err := w.Reset(); err == nil {
		t.Fatal("Reset with a failing truncate returned nil")
	}
	requirePoisoned(t, w, "after failed Reset truncate")
}

// TestResetSyncFailurePoisonsWAL: the same for Reset's own fsync.
func TestResetSyncFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	ff.failSyncs = 1
	if err := w.Reset(); err == nil {
		t.Fatal("Reset with a failing fsync returned nil")
	}
	requirePoisoned(t, w, "after failed Reset fsync")
}

// TestResetHealsPoison: a successful Reset is the one sanctioned way
// back — the truncated, fsynced log verifiably holds nothing, so the
// sticky errors clear and appends work (and persist) again.
func TestResetHealsPoison(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	ff.failSyncs = 1
	if err := w.Sync(); err == nil {
		t.Fatal("Sync with a failing fsync returned nil")
	}
	requirePoisoned(t, w, "before the healing Reset")
	if err := w.Reset(); err != nil {
		t.Fatalf("healthy Reset: %v", err)
	}
	if err := w.Append(WALPut, []byte("post"), []byte("reset")); err != nil {
		t.Fatalf("Append after healing Reset: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync after healing Reset: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var got []string
	if _, _, err := ReplayWAL(ff.Name(), func(op WALOp, key, val []byte) error {
		got = append(got, op.String()+":"+string(key)+"="+string(val))
		return nil
	}); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if want := "Put:post=reset"; strings.Join(got, ",") != want {
		t.Fatalf("post-Reset log replayed %q, want %q", got, want)
	}
}

// TestCloseSyncFailurePoisonsWAL: the audit's last corner — Close's
// final fsync failing must leave the sticky error in place for any
// caller that retries Sync on the handle.
func TestCloseSyncFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	ff.failSyncs = 1
	if err := w.Close(); err == nil {
		t.Fatal("Close with a failing fsync returned nil")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync after a failed Close fsync returned nil")
	}
}

// TestZeroFillFailurePoisonsWAL: a failed extension of the zero-filled
// region poisons exactly as a failed record write does, whether it is
// the first append's extension or one further into the log, with fsync
// on or off. The record that needed the extension is refused, and so
// is everything after it.
func TestZeroFillFailurePoisonsWAL(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		for _, later := range []bool{false, true} {
			name := map[bool]string{false: "fsync-on", true: "nosync"}[noSync] +
				map[bool]string{false: "/first-extension", true: "/later-extension"}[later]
			t.Run(name, func(t *testing.T) {
				w, ff := newFlakyWAL(t, WALOptions{NoSync: noSync})
				val := make([]byte, 1000)
				if later {
					// The first Append extends the region; fill the chunk up
					// to the record that would cross its end.
					rec := int64(len(encodeWAL([]walRec{{WALPut, []byte("key"), val}})) - walHeaderSize)
					for w.zeroEnd == walHeaderSize || w.end+rec <= w.zeroEnd {
						if err := w.Append(WALPut, []byte("key"), val); err != nil {
							t.Fatalf("healthy Append: %v", err)
						}
					}
				}
				ff.failWriteAts = 1
				if err := w.Append(WALPut, []byte("key"), val); err == nil {
					t.Fatal("Append whose zero-fill failed returned nil")
				}
				if ff.failedWriteAt != walZeroChunk {
					t.Fatalf("the failed WriteAt wrote %d bytes; want the %d-byte zero-fill", ff.failedWriteAt, walZeroChunk)
				}
				requirePoisoned(t, w, "after failed zero-fill")
				if w.Err() == nil {
					t.Fatal("Err() is nil after a failed zero-fill")
				}
			})
		}
	}
}

// TestRecordWriteFailurePoisonsWAL: the record's own write failing
// inside the zero-filled region poisons too.
func TestRecordWriteFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	ff.failWriteAts = 1
	if err := w.Append(WALPut, []byte("b"), []byte("2")); err == nil {
		t.Fatal("Append whose record write failed returned nil")
	}
	if ff.failedWriteAt == walZeroChunk {
		t.Fatal("the failed WriteAt was a zero-fill; want the record's own write")
	}
	requirePoisoned(t, w, "after failed record write")
}

// TestCloseTruncateFailurePoisonsWAL: Close's truncate of the
// zero-filled region failing must leave the sticky error in place.
func TestCloseTruncateFailurePoisonsWAL(t *testing.T) {
	w, ff := newFlakyWAL(t, WALOptions{})
	if err := w.Append(WALPut, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("healthy Append: %v", err)
	}
	ff.failTruncates = 1
	if err := w.Close(); err == nil {
		t.Fatal("Close with a failing truncate returned nil")
	}
	if w.Err() == nil {
		t.Fatal("Err() is nil after a failed Close truncate")
	}
}
