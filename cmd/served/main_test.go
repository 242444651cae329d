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
	m, err := openStore(t.TempDir(),
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
	m, err := openStore(t.TempDir(),
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

// TestRecoveryDecodesKeyViews recovers a snapshot plus a WAL through
// openStore, whose codecs decode keys and values as views of the
// loader's reused buffers, and reads every pair back through the
// backend's GetBatch. A map that kept a decoded view instead of copying
// it would read back a later record's bytes.
func TestRecoveryDecodesKeyViews(t *testing.T) {
	const n = 4000
	dir := t.TempDir()
	opts := []repro.Option{repro.WithShards(4), repro.WithBuckets(64), repro.WithWALSync(false)}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := func(i, round int) []byte { return []byte(fmt.Sprintf("value-%d-%d", i, round)) }
	want := make(map[string]string)
	set := func(b *backend, i, round int) {
		t.Helper()
		if err := b.Set(key(i), val(i, round)); err != nil {
			t.Fatal(err)
		}
		want[string(key(i))] = string(val(i, round))
	}

	m, err := openStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	b := &backend{m: m}
	for i := 0; i < n; i++ {
		set(b, i, 0)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL: overwrite half the snapshot, delete a tenth, add new keys.
	for i := 0; i < n/2; i++ {
		set(b, i, 1)
	}
	for i := 0; i < n; i += 10 {
		if _, err := b.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(want, string(key(i)))
	}
	for i := n; i < n+n/2; i++ {
		set(b, i, 0)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := openStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != len(want) {
		t.Fatalf("recovered %d pairs, want %d", m2.Len(), len(want))
	}
	b2 := &backend{m: m2}
	keys := make([][]byte, 0, 64)
	vals, found := make([][]byte, 64), make([]bool, 64)
	for lo := 0; lo < n+n/2; lo += 64 {
		keys = keys[:0]
		for i := lo; i < min(lo+64, n+n/2); i++ {
			keys = append(keys, key(i))
		}
		b2.GetBatch(keys, vals, found)
		for j, k := range keys {
			w, ok := want[string(k)]
			if found[j] != ok || string(vals[j]) != w {
				t.Fatalf("GetBatch(%s) = (%q, %v), want (%q, %v)", k, vals[j], found[j], w, ok)
			}
		}
	}
	if st := m2.Stats(); st.BackstopResizes != 0 {
		t.Errorf("recovery started %d backstop resizes, want 0", st.BackstopResizes)
	}
}
