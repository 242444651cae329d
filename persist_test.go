package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/cmap"
)

// TestSaveLoadMap snapshots a Map through Save and reloads it with Load
// at another shard and bucket count, content intact.
func TestSaveLoadMap(t *testing.T) {
	type loc struct {
		Block  uint32
		Offset uint32
	}
	content := make(map[string]loc)
	m := repro.NewMap[string, loc](repro.WithShards(4), repro.WithBuckets(64), repro.WithSeed(3))
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("sha256:%032x", i)
		v := loc{Block: uint32(i / 7), Offset: uint32(i % 7)}
		if !m.Put(k, v) {
			t.Fatalf("fill rejected %q", k)
		}
		content[k] = v
	}
	var buf bytes.Buffer
	if err := repro.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := repro.Load[string, loc](bytes.NewReader(buf.Bytes()), repro.WithShards(16), repro.WithBuckets(16))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != len(content) {
		t.Fatalf("Len %d, want %d", m2.Len(), len(content))
	}
	for k, v := range content {
		if gv, ok := m2.Get(k); !ok || gv != v {
			t.Fatalf("%q = (%v, %v), want (%v, true)", k, gv, ok, v)
		}
	}
}

// TestMapStringStringRoundTrip saves a Map[string, string] — keys and
// values both in the byte arena — and reloads it at other shard and
// bucket counts: every pair comes back byte for byte, the empty key and
// the empty value included, and pairs overwritten before the save come
// back with their latest value (their dead records must not resurface).
func TestMapStringStringRoundTrip(t *testing.T) {
	m := repro.NewMap[string, string](repro.WithShards(2), repro.WithBuckets(16), repro.WithSeed(5))
	want := make(map[string]string)
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("key-%d", i)
		want[k] = strings.Repeat("v", i%23) + k
		if !m.Put(k, "stale value of "+k) || !m.Put(k, want[k]) {
			t.Fatalf("Put(%q) rejected", k)
		}
	}
	m.Put("", "empty key")
	want[""] = "empty key"
	m.Put("empty value", "")
	want["empty value"] = ""
	var buf bytes.Buffer
	if err := repro.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, geo := range []struct{ shards, buckets int }{{1, 256}, {8, 4}} {
		m2, err := repro.Load[string, string](bytes.NewReader(buf.Bytes()),
			repro.WithShards(geo.shards), repro.WithBuckets(geo.buckets))
		if err != nil {
			t.Fatalf("%+v: %v", geo, err)
		}
		if m2.Len() != len(want) {
			t.Fatalf("%+v: reloaded Len = %d, want %d", geo, m2.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := m2.Get(k); !ok || got != v {
				t.Fatalf("%+v: reloaded Get(%q) = (%q, %v), want (%q, true)", geo, k, got, ok, v)
			}
		}
		m2.Range(func(k, v string) bool {
			if want[k] != v {
				t.Errorf("%+v: reloaded Range yields %q → %q, want %q", geo, k, v, want[k])
			}
			return true
		})
	}
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

// TestDurableMapSharedKeysRecover: writers that share keys must leave a
// log whose replay rebuilds the live map. The stripe lock orders each
// key's WAL record and map write; without it, group commit wakes a batch
// of writers at once and their map writes land in another order than
// their records, so recovery resurrects a superseded value or a deleted
// key. The WAL fsyncs, as by default: the batched wake-up is what
// reorders the writes, and without fsync it almost never happens.
func TestDurableMapSharedKeysRecover(t *testing.T) {
	const writers, perWriter, keys, rounds = 16, 500, 2, 5
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s, err := repro.Open[uint64, uint64](dir, repro.WithShards(2), repro.WithBuckets(16))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					k := uint64(i % keys)
					var err error
					if (w+i)%4 == 0 {
						_, err = s.Delete(k)
					} else {
						err = s.Put(k, uint64(w)<<32|uint64(i))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := repro.Open[uint64, uint64](dir, repro.WithShards(2), repro.WithBuckets(16))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < keys; k++ {
			lv, lok := s.Get(k)
			if rv, rok := s2.Get(k); rv != lv || rok != lok {
				t.Fatalf("round %d: key %d recovered as (%#x, %v), live (%#x, %v)", round, k, rv, rok, lv, lok)
			}
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round %d: recovered %d pairs, live %d", round, s2.Len(), s.Len())
		}
		s2.Close()
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

// servedConfig is servedFlags as the map's Config, for the presize
// BucketsFor computes from it.
func servedConfig() cmap.Config {
	return cmap.Config{Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3,
		MaxLoadFactor: 0.9, Seed: 1, StashPerShard: 32}
}

// presizedCapacity is the slot capacity recovery presizes served's map
// to for pairs counted pairs.
func presizedCapacity(pairs int) int {
	cfg := servedConfig()
	return cfg.Shards * cmap.BucketsFor(cfg, pairs) * cfg.SlotsPerBucket
}

// TestRecoveryPresizedForNewKeys: a snapshot plus a WAL of new keys
// recovers straight into the geometry the growth rule presizes for their
// count, with no resize, and no larger than a map that Put the same keys
// one by one grew to. The WAL's new keys must be counted: the snapshot
// alone presizes to 4091 buckets per shard (12,000 pairs a shard, 12,531
// for the busiest, of the 12,559 a shard holds under W(4091) = 0.767),
// while with the WAL's keys (13,500 a shard, 14,063 for the busiest) the
// presize is 4603 buckets. Presizing from the snapshot alone would
// double every shard.
func TestRecoveryPresizedForNewKeys(t *testing.T) {
	const n = 192_000
	if a, b := cmap.BucketsFor(servedConfig(), n), cmap.BucketsFor(servedConfig(), n+n/8); a >= b {
		t.Fatalf("the snapshot alone presizes to %d buckets per shard, with the WAL's keys to %d; the test needs fewer", a, b)
	}
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
	if st.Resizes != 0 || st.BackstopResizes != 0 {
		t.Errorf("recovery resized %d times (%d backstops), want 0", st.Resizes, st.BackstopResizes)
	}
	if want := presizedCapacity(n + n/8); st.Capacity != want {
		t.Errorf("recovered capacity %d, want the presize %d", st.Capacity, want)
	}
	if st.Capacity > grown.Capacity {
		t.Errorf("recovered capacity %d, more than the %d of the map that grew by Puts", st.Capacity, grown.Capacity)
	}
}

// TestRecoverySmallSnapshotGrowsOnline: a snapshot far smaller than
// served's configured 4096 buckets per shard hold recovers at the
// presize for its own count (mget-cache's 16,384 pairs: 347 buckets per
// shard at 0.74 load, where 4096 buckets would hold them at 0.06), with
// no resize. A presized shard loads to within five binomial standard
// deviations of its limit, so the first new keys grow it online; they
// must grow it by the watermark alone, like any other shard, and every
// key must read back.
func TestRecoverySmallSnapshotGrowsOnline(t *testing.T) {
	const n = 16_384
	cfg := servedConfig()
	if configured := cfg.Shards * cfg.BucketsPerShard * cfg.SlotsPerBucket; presizedCapacity(n) >= configured {
		t.Fatalf("%d pairs presize to %d slots; the test needs fewer than the configured %d", n, presizedCapacity(n), configured)
	}
	dir := t.TempDir()
	s, err := repro.Open[string, uint64](dir, servedFlags()...)
	if err != nil {
		t.Fatal(err)
	}
	putRange(t, s, 0, n, 0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := repro.Open[string, uint64](dir, servedFlags()...)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if st := s2.Map().Stats(); st.Capacity != presizedCapacity(n) || st.Resizes != 0 {
		t.Fatalf("recovered capacity %d after %d resizes, want the presize %d after none", st.Capacity, st.Resizes, presizedCapacity(n))
	}
	putRange(t, s2, n, 5*n, 0)
	if st := settledStats(s2.Map()); st.Resizes == 0 || st.BackstopResizes != 0 {
		t.Errorf("%d new keys: %d resizes, %d backstops; want growth by the watermark alone", 4*n, st.Resizes, st.BackstopResizes)
	}
	if s2.Len() != 5*n {
		t.Fatalf("%d pairs stored, want %d", s2.Len(), 5*n)
	}
	for i := 0; i < 5*n; i++ {
		if v, ok := s2.Get(recoveryKey(i)); !ok || v != uint64(i) {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
}

// TestRecoveryPresizedOverwriteWAL: the Puts of a WAL that only
// overwrites snapshot keys are counted, capped at the snapshot's count,
// so recovery presizes for at most twice the snapshot and over-provisions
// by at most one doubling of the snapshot-only geometry.
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
	// count as 4n pairs.
	for round := 1; round <= 3; round++ {
		putRange(t, s, 0, n, round)
	}

	st := reopen(t, s, dir, n, func(i int) uint64 { return uint64(i + 3) }, servedFlags()...)
	if st.Resizes != 0 || st.BackstopResizes != 0 {
		t.Errorf("recovery resized %d times (%d backstops), want 0", st.Resizes, st.BackstopResizes)
	}
	if want := presizedCapacity(2 * n); st.Capacity != want {
		t.Errorf("recovered capacity %d, want the presize for the capped count, %d", st.Capacity, want)
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
