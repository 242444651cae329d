package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// TestPublishAddr covers the happy path: the address lands at the
// final name with a trailing newline and no .tmp residue.
func TestPublishAddr(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr.txt")
	if err := publishAddr(path, "127.0.0.1:4680"); err != nil {
		t.Fatalf("publishAddr: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read published addr: %v", err)
	}
	if string(got) != "127.0.0.1:4680\n" {
		t.Fatalf("published %q, want %q", got, "127.0.0.1:4680\n")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived a successful publish: stat err = %v", err)
	}
}

// TestPublishAddrRenameFailureRemovesTmp is the regression test for
// the leak reprolint's fsyncorder analyzer surfaced: the old inline
// publish wrote addr.txt.tmp and Fatalf'd if the rename failed,
// leaving the tmp behind for the next run's polling script to trip
// over. Renaming onto a non-empty directory forces the failure.
func TestPublishAddrRenameFailureRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr.txt")
	// A non-empty directory at the destination makes os.Rename fail
	// (ENOTEMPTY/EEXIST) on every platform we build for.
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := publishAddr(path, "127.0.0.1:4680"); err == nil {
		t.Fatal("publishAddr succeeded renaming onto a non-empty directory")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind after failed publish: stat err = %v", err)
	}
}

// TestPublishAddrWriteFailureRemovesTmp forces the WriteFile leg to
// fail by pointing the tmp name itself at an existing directory.
func TestPublishAddrWriteFailureRemovesTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr.txt")
	if err := os.MkdirAll(path+".tmp", 0o755); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := publishAddr(path, "127.0.0.1:4680"); err == nil {
		t.Fatal("publishAddr succeeded writing tmp over a directory")
	}
	// The tmp path is a directory os.Remove can delete only if empty —
	// it is, so the cleanup path should have removed it.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp path left behind after failed write: stat err = %v", err)
	}
}

// TestBackendReadsAllocFree pins the read path's allocation budget: a
// 16-key GetBatch passes frame views to the map and returns views of its
// arena, so it does not allocate once warm.
func TestBackendReadsAllocFree(t *testing.T) {
	m, err := repro.OpenOf[string, []byte](t.TempDir(),
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(4), repro.WithBuckets(64), repro.WithWALSync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := &backend{m: m}
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%016x", i))
		if err := b.Set(keys[i], []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	if n := b.GetBatch(keys, vals, found); n != len(keys) {
		t.Fatalf("GetBatch found %d of %d", n, len(keys))
	}
	for i, v := range vals {
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, v, want)
		}
	}
	// GetBatch's scratch is pooled, and the race detector's sync.Pool
	// drops Puts at random, so its budget holds only without -race.
	if a := testing.AllocsPerRun(200, func() { b.GetBatch(keys, vals, found) }); a != 0 && !raceEnabled {
		t.Errorf("GetBatch of %d keys: %v allocs/op, want 0", len(keys), a)
	}
}

// TestBackendSetCopies checks that a stored key and value survive the
// caller reusing the frame buffers they arrived in.
func TestBackendSetCopies(t *testing.T) {
	m, err := repro.OpenOf[string, []byte](t.TempDir(),
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(2), repro.WithBuckets(16), repro.WithWALSync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := &backend{m: m}
	key, val := []byte("frame-key"), []byte("frame-value")
	if err := b.Set(key, val); err != nil {
		t.Fatal(err)
	}
	copy(key, "XXXXXXXXX")
	copy(val, "YYYYYYYYYYY")
	got, found := make([][]byte, 1), make([]bool, 1)
	if b.GetBatch([][]byte{[]byte("frame-key")}, got, found); !found[0] || string(got[0]) != "frame-value" {
		t.Fatalf("GetBatch after the frame was reused = (%q, %v)", got[0], found[0])
	}
}
