package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
)

// TestSaveLoadAllFamilies: every typed family snapshots through the one
// Save entry point and reloads with its content intact — at a different
// geometry where the family supports one.
func TestSaveLoadAllFamilies(t *testing.T) {
	type loc struct {
		Block  uint32
		Offset uint32
	}
	content := make(map[string]loc)
	fill := func(c interface {
		Put(k string, v loc) bool
	}) {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("sha256:%032x", i)
			v := loc{Block: uint32(i / 7), Offset: uint32(i % 7)}
			if !c.Put(k, v) {
				t.Fatalf("fill rejected %q", k)
			}
			content[k] = v
		}
	}
	check := func(name string, c repro.Container[string, loc]) {
		t.Helper()
		if c.Len() != len(content) {
			t.Fatalf("%s: Len %d, want %d", name, c.Len(), len(content))
		}
		for k, v := range content {
			if gv, ok := c.Get(k); !ok || gv != v {
				t.Fatalf("%s: %q = (%v, %v), want (%v, true)", name, k, gv, ok, v)
			}
		}
	}

	var buf bytes.Buffer

	m := repro.NewMap[string, loc](repro.WithShards(4), repro.WithBuckets(64), repro.WithSeed(3))
	fill(m)
	if err := repro.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := repro.Load[string, loc](bytes.NewReader(buf.Bytes()), repro.WithShards(16), repro.WithBuckets(16))
	if err != nil {
		t.Fatal(err)
	}
	check("Map", m2)

	buf.Reset()
	tb := repro.NewTable[string, loc](repro.WithBuckets(128), repro.WithSeed(3))
	fill(tb)
	if err := repro.Save(&buf, tb); err != nil {
		t.Fatal(err)
	}
	tb2, err := repro.LoadTable[string, loc](bytes.NewReader(buf.Bytes()), repro.WithBuckets(512))
	if err != nil {
		t.Fatal(err)
	}
	check("Table", tb2)

	buf.Reset()
	cm := repro.NewCuckooMap[string, loc](repro.WithCapacity(1024), repro.WithSeed(3))
	fill(cm)
	if err := repro.Save(&buf, cm); err != nil {
		t.Fatal(err)
	}
	cm2, err := repro.LoadCuckooMap[string, loc](bytes.NewReader(buf.Bytes()), repro.WithCapacity(2048))
	if err != nil {
		t.Fatal(err)
	}
	check("CuckooMap", cm2)

	buf.Reset()
	om := repro.NewOpenMap[string, loc](repro.WithCapacity(1024), repro.WithSeed(3))
	fill(om)
	if err := repro.Save(&buf, om); err != nil {
		t.Fatal(err)
	}
	om2, err := repro.LoadOpenMap[string, loc](bytes.NewReader(buf.Bytes()), repro.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	check("OpenMap", om2)
}

// TestDurableMapRecovery is the Open lifecycle: durable writes, a
// checkpoint, more writes, an unclean "crash" (the handle is simply
// abandoned), and recovery at a different geometry — snapshot + WAL
// replay must reconstruct every acknowledged write.
func TestDurableMapRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := repro.Open[string, uint64](dir,
		repro.WithShards(4), repro.WithBuckets(32), repro.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k-%05d", i) }

	// Batch 1, covered by a checkpoint.
	for i := 0; i < 500; i++ {
		if err := s.Put(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 10 {
		if _, err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Batch 2, in the WAL only.
	for i := 500; i < 800; i++ {
		if err := s.Put(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(key(501)); err != nil {
		t.Fatal(err)
	}
	wantLen := s.Len()
	// Crash: no Close, no second checkpoint. Every write above was
	// acknowledged durable (fsync on by default), so nothing may be lost.

	s2, err := repro.Open[string, uint64](dir,
		repro.WithShards(16), repro.WithBuckets(8), repro.WithSeed(5))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if s2.Len() != wantLen {
		t.Fatalf("recovered %d pairs, want %d", s2.Len(), wantLen)
	}
	for i := 0; i < 800; i++ {
		deleted := (i < 500 && i%10 == 0) || i == 501
		v, ok := s2.Get(key(i))
		if ok == deleted {
			t.Fatalf("key %d: present=%v, want %v", i, ok, !deleted)
		}
		if ok && v != uint64(i) {
			t.Fatalf("key %d = %d", i, v)
		}
	}
	// And the recovered store accepts further durable writes.
	if err := s2.Put("post-recovery", 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableMapTornTail: bytes torn off the WAL tail (the crash
// cutting a record mid-write) lose at most that unacknowledged record.
func TestDurableMapTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := repro.Open[uint64, uint64](dir, repro.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := s.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the final record: the crash hit mid-write, so its appender
	// never got an acknowledgment.
	walPath := filepath.Join(dir, "wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := repro.Open[uint64, uint64](dir, repro.WithSeed(9))
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 99 {
		t.Fatalf("recovered %d pairs, want 99 (only the torn record lost)", s2.Len())
	}
	for i := uint64(1); i <= 99; i++ {
		if v, ok := s2.Get(i); !ok || v != i*3 {
			t.Fatalf("key %d = (%d, %v)", i, v, ok)
		}
	}
}

// TestDurableMapConcurrent: concurrent durable writers (group-commit
// path) with a checkpoint racing them; recovery sees every acknowledged
// write.
func TestDurableMapConcurrent(t *testing.T) {
	dir := t.TempDir()
	// WAL sync off: this test exercises the concurrency structure, not
	// the disk; recovery still replays everything (no real power loss).
	s, err := repro.Open[uint64, uint64](dir, repro.WithSeed(2), repro.WithWALSync(false))
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(w+1)<<32 | uint64(i)
				if err := s.Put(k, k+1); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i == perWorker/2 && w == 0 {
					if err := s.Checkpoint(); err != nil {
						t.Errorf("Checkpoint: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := repro.Open[uint64, uint64](dir, repro.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != workers*perWorker {
		t.Fatalf("recovered %d pairs, want %d", s2.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := uint64(w+1)<<32 | uint64(i)
			if v, ok := s2.Get(k); !ok || v != k+1 {
				t.Fatalf("key %#x = (%d, %v)", k, v, ok)
			}
		}
	}
}

// TestOpenRequiresGrowth: a fixed-capacity durable map is a recovery
// hazard (replay could reject) and must be refused up front.
func TestOpenRequiresGrowth(t *testing.T) {
	if _, err := repro.Open[uint64, uint64](t.TempDir(), repro.WithMaxLoadFactor(0)); err == nil {
		t.Fatal("Open with growth disabled must fail")
	}
}

// TestCheckpointFailureCleansTmp is the crash-shaped checkpoint
// regression: a Checkpoint whose rename fails must not leave
// snapshot.tmp behind (pre-fix it did), the store must keep taking
// durable writes afterwards (the WAL was never reset), and a reopen —
// with a stale tmp pre-seeded the way a crash mid-checkpoint would
// leave one — must discard the tmp and recover every acknowledged
// write.
func TestCheckpointFailureCleansTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := repro.Open[uint64, uint64](dir, repro.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		if err := s.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}

	// Sabotage the rename target: a non-empty directory at the snapshot
	// path makes os.Rename fail after the tmp is fully written and
	// fsynced — exactly the failure shape that used to leak the tmp.
	snap := filepath.Join(dir, "snapshot")
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snap, "occupied"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with an unrenameable target returned nil")
	}
	tmp := filepath.Join(dir, "snapshot.tmp")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("snapshot.tmp survived a failed Checkpoint (stat err = %v)", err)
	}

	// The failed checkpoint never reset the WAL, so the store still
	// holds — and keeps accepting — every durable write.
	for i := uint64(201); i <= 250; i++ {
		if err := s.Put(i, i*3); err != nil {
			t.Fatalf("Put after failed Checkpoint: %v", err)
		}
	}
	// Crash: no Close. Clear the sabotage and pre-seed a stale tmp, the
	// state a crash between Checkpoint's write and rename leaves behind.
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := repro.Open[uint64, uint64](dir, repro.WithSeed(7))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left the stale snapshot.tmp in place (stat err = %v)", err)
	}
	if s2.Len() != 250 {
		t.Fatalf("recovered %d pairs, want 250", s2.Len())
	}
	for i := uint64(1); i <= 250; i++ {
		if v, ok := s2.Get(i); !ok || v != i*3 {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", i, v, ok, i*3)
		}
	}
	// And checkpointing works again once the obstruction is gone.
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot missing after successful Checkpoint: %v", err)
	}
}

// servedFlags is cmd/served's default geometry, with the benchmark's
// seed. The WAL skips fsync: these tests check recovery's geometry, not
// the disk.
func servedFlags() []repro.Option {
	return []repro.Option{repro.WithShards(16), repro.WithBuckets(1 << 12), repro.WithSlots(4),
		repro.WithD(3), repro.WithMaxLoadFactor(0.9), repro.WithSeed(1), repro.WithWALSync(false)}
}

func recoveryKey(i int) string { return fmt.Sprintf("key-%08d", i) }

// putRange durably stores recoveryKey(i) → i+bump for i in [from, to).
func putRange(t *testing.T, s *repro.DurableMap[string, uint64], from, to, bump int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Put(recoveryKey(i), uint64(i+bump)); err != nil {
			t.Fatal(err)
		}
	}
}

// settledStats finishes any in-flight migration, then takes the map's
// snapshot: the geometry organic growth ended at.
func settledStats(m *repro.Map[string, uint64]) repro.ContainerStats {
	for m.MigrateStep(1<<20) > 0 {
	}
	return m.Stats()
}

// reopen closes s and recovers its directory at opts, checking that key
// i holds want(i) for every i in [0, n) and nothing else is stored. It
// returns the recovered map's settled stats.
func reopen(t *testing.T, s *repro.DurableMap[string, uint64], dir string, n int, want func(i int) uint64, opts ...repro.Option) repro.ContainerStats {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := repro.Open[string, uint64](dir, opts...)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("recovered %d pairs, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(recoveryKey(i)); !ok || v != want(i) {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", i, v, ok, want(i))
		}
	}
	return settledStats(s2.Map())
}

// TestRecoveryPresizedForNewKeys: a snapshot plus a WAL of new keys
// recovers straight into the geometry a map that Put the same keys one
// by one grew to, with no resize. n is chosen so the snapshot alone fits
// served's initial 4096 buckets per shard (14,000 of 14,745 pairs a shard
// holds under the watermark) while the WAL's new keys push every shard
// over it: presizing from the snapshot alone would still double once.
func TestRecoveryPresizedForNewKeys(t *testing.T) {
	const n = 224_000
	dir := t.TempDir()
	s, err := repro.Open[string, uint64](dir, servedFlags()...)
	if err != nil {
		t.Fatal(err)
	}
	putRange(t, s, 0, n, 0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	putRange(t, s, n, n+n/8, 0)
	grown := settledStats(s.Map())
	if grown.Resizes == 0 {
		t.Fatal("the keys never grew the map; the test checks nothing")
	}

	st := reopen(t, s, dir, n+n/8, func(i int) uint64 { return uint64(i) }, servedFlags()...)
	if st.Resizes != 0 {
		t.Errorf("recovery resized %d times, want 0", st.Resizes)
	}
	if st.Capacity != grown.Capacity {
		t.Errorf("recovered capacity %d, want %d (the map that grew by Puts)", st.Capacity, grown.Capacity)
	}
}

// TestRecoveryPresizedOverwriteWAL: the Puts of a WAL that only
// overwrites snapshot keys are counted, capped at the snapshot's count,
// so recovery over-provisions by at most one doubling of the
// snapshot-only geometry.
func TestRecoveryPresizedOverwriteWAL(t *testing.T) {
	const n = 160_000 // 10,000 a shard: served's 4096 buckets hold them with no growth
	dir := t.TempDir()
	s, err := repro.Open[string, uint64](dir, servedFlags()...)
	if err != nil {
		t.Fatal(err)
	}
	putRange(t, s, 0, n, 0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapOnly := settledStats(s.Map())
	// Overwrite every key three times: uncapped, the 3n logged Puts would
	// count as 4n pairs and size the map two doublings up.
	for round := 1; round <= 3; round++ {
		putRange(t, s, 0, n, round)
	}

	st := reopen(t, s, dir, n, func(i int) uint64 { return uint64(i + 3) }, servedFlags()...)
	if st.Resizes != 0 {
		t.Errorf("recovery resized %d times, want 0", st.Resizes)
	}
	if st.Capacity > 2*snapOnly.Capacity {
		t.Errorf("recovered capacity %d, more than one doubling over the snapshot-only %d", st.Capacity, snapOnly.Capacity)
	}
}

// TestRecoveryWALOnlyNotPresized: with no snapshot there is nothing to
// count, so recovery starts at the options' geometry and grows exactly
// as the original map did while its Puts were logged.
func TestRecoveryWALOnlyNotPresized(t *testing.T) {
	const n = 20_000
	opts := append(servedFlags(), repro.WithBuckets(64))
	dir := t.TempDir()
	s, err := repro.Open[string, uint64](dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	putRange(t, s, 0, n, 0)
	grown := settledStats(s.Map())

	st := reopen(t, s, dir, n, func(i int) uint64 { return uint64(i) }, opts...)
	if st.Resizes == 0 || st.Resizes != grown.Resizes {
		t.Errorf("WAL-only recovery resized %d times, want the original map's %d (> 0)", st.Resizes, grown.Resizes)
	}
	if st.Capacity != grown.Capacity {
		t.Errorf("recovered capacity %d, want %d", st.Capacity, grown.Capacity)
	}
}
