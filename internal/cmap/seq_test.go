package cmap

// Tests for the seqlock read path: the type rule, torn-read safety under
// concurrent resize and rebuild (the case the race detector must bless),
// batched lookups mid-migration, and the consistency of the lock-free
// Stats snapshot.

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestSeqReadGating pins the type rule: every key and value shape the
// map accepts — inline pointer-free words, string kinds and []byte
// values in the arena — takes the lock-free read path, and every other
// pointer-holding type panics at construction. A Get that completes
// while a writer holds the shard lock (its generation even, as between
// two mutations) can only have been served by the seqlock probe.
func TestSeqReadGating(t *testing.T) {
	cfg := Config{Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 2, D: 2, Seed: 1}
	t.Run("uint64", func(t *testing.T) {
		seqReadWhileLocked(t, newU64(cfg), 7, 70, eqComparable[uint64])
	})
	t.Run("fiveTuple", func(t *testing.T) {
		m := NewKeyed[fiveTuple, uint64](keyed.ForType[fiveTuple](), cfg)
		seqReadWhileLocked(t, m, fiveTuple{SrcIP: 1, DstPort: 80}, 9, eqComparable[uint64])
	})
	t.Run("string-uint64", func(t *testing.T) {
		m := NewKeyed[string, uint64](keyed.ForType[string](), cfg)
		seqReadWhileLocked(t, m, "alpha", 11, eqComparable[uint64])
	})
	t.Run("uint64-bytes", func(t *testing.T) {
		m := NewKeyed[uint64, []byte](keyed.ForType[uint64](), cfg)
		seqReadWhileLocked(t, m, 3, []byte("three"), bytes.Equal)
	})
	t.Run("string-bytes", func(t *testing.T) {
		m := NewKeyed[string, []byte](keyed.ForType[string](), cfg)
		seqReadWhileLocked(t, m, "beta", []byte("value of beta"), bytes.Equal)
	})
	t.Run("string-string", func(t *testing.T) {
		m := NewKeyed[string, string](keyed.ForType[string](), cfg)
		seqReadWhileLocked(t, m, "gamma", "value of gamma", eqComparable[string])
	})

	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not state the rule (%q)", name, msg, want)
			}
		}()
		fn()
	}
	mustPanic("*int value", "pointer-free", func() { NewKeyed[uint64, *int](keyed.ForType[uint64](), cfg) })
	mustPanic("[]string value", "[]byte", func() { NewKeyed[uint64, []string](keyed.ForType[uint64](), cfg) })
	mustPanic("[3]byte key", "multiple of 4", func() {
		NewKeyed[[3]byte, uint64](func(hashes.SipKey, [3]byte) uint64 { return 0 }, cfg)
	})
}

// eqComparable is == as a function, for the generic helpers below.
func eqComparable[T comparable](a, b T) bool { return a == b }

// seqReadWhileLocked stores key → val, takes key's shard lock the way a
// stalled writer would hold it between mutations, and requires Get and
// GetBatch to return val without waiting for the lock.
func seqReadWhileLocked[K comparable, V any](t *testing.T, m *Map[K, V], key K, val V, eq func(V, V) bool) {
	t.Helper()
	if !m.Put(key, val) {
		t.Fatal("Put rejected")
	}
	sh, _ := m.route(key)
	sh.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if got, ok := m.Get(key); !ok || !eq(got, val) {
			done <- fmt.Errorf("Get = (%v, %v), want (%v, true)", got, ok, val)
			return
		}
		vals, found := make([]V, 1), make([]bool, 1)
		if m.GetBatch([]K{key}, vals, found); !found[0] || !eq(vals[0], val) {
			done <- fmt.Errorf("GetBatch = (%v, %v), want (%v, true)", vals[0], found[0], val)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		sh.mu.Unlock()
		<-done
		t.Fatal("reads waited for the shard lock: the seqlock path was not taken")
	}
	if st := m.Stats(); st.SeqFallbacks != 0 {
		t.Errorf("SeqFallbacks = %d, want 0", st.SeqFallbacks)
	}
}

// TestSeqlockStableReadsDuringResize is the torn-read hunt: a set of
// stable keys is written once, then writer goroutines churn a disjoint
// key range hard enough to drive repeated resizes (MigrateBatch 1 keeps
// every shard mid-migration almost continuously, maximizing the window
// where Gets probe two geometries) while another overwrites a third range
// over and over — for arena values that fills the arena with dead bytes
// and drives same-size rebuilds. Reader goroutines hammer the stable keys
// through both Get and GetBatch and require exact values every time. A
// torn read that escaped generation validation shows up as a wrong value
// or a false miss — for the string → []byte map, whose value lengths vary
// by key, a torn or stale ref shows up as a wrong length or wrong bytes;
// under -race, any non-atomic writer/reader overlap shows up as a report.
func TestSeqlockStableReadsDuringResize(t *testing.T) {
	cfg := Config{
		Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 2, D: 3, Seed: 7,
		StashPerShard: 16, MaxLoadFactor: 0.6, MigrateBatch: 1,
	}
	t.Run("uint64", func(t *testing.T) {
		stableReadsDuringResize(t, newU64(cfg),
			func(k uint64) uint64 { return k },
			func(k uint64) uint64 { return k * 3 },
			eqComparable[uint64], false)
	})
	t.Run("string-bytes", func(t *testing.T) {
		stableReadsDuringResize(t, NewKeyed[string, []byte](keyed.ForType[string](), cfg),
			func(k uint64) string { return fmt.Sprintf("k%x", k) },
			varValue, bytes.Equal, true)
	})
}

// varValue is a value whose length and bytes both depend on k.
func varValue(k uint64) []byte {
	v := make([]byte, k%61)
	for i := range v {
		v[i] = byte(k>>(i%8)) ^ byte(i)
	}
	return v
}

// stableReadsDuringResize runs the torn-read hunt on m; key and val
// derive each key and value from an integer. wantRebuilds requires the
// overwrite churn to have rebuilt some shard at the same size.
func stableReadsDuringResize[K comparable, V any](t *testing.T, m *Map[K, V], key func(uint64) K, val func(uint64) V, eq func(V, V) bool, wantRebuilds bool) {
	initialBuckets := m.shards[0].core.Buckets()
	const (
		stableKeys = 1 << 10
		writers    = 2
		readers    = 2
		writerOps  = 15000
	)
	for k := uint64(1); k <= stableKeys; k++ {
		// MigrateBatch 1 lets the fill outrun migration; a rejection just
		// means the in-flight doubling needs draining before the next one
		// can start.
		for !m.Put(key(k), val(k)) {
			if m.MigrateStep(64) == 0 {
				t.Fatalf("stable fill rejected key %d with nothing to migrate", k)
			}
		}
	}

	var stop atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Add(1)
			src := rng.NewXoshiro256(uint64(w+1) * 0x9E3779B97F4A7C15)
			for i := 0; i < writerOps; i++ {
				// Disjoint churn range: deletes keep occupancy oscillating
				// around the watermark so resizes keep starting.
				k := 1<<20 + uint64(w)<<32 + src.Uint64()%(1<<12)
				if src.Uint64()%4 == 0 {
					m.Delete(key(k))
				} else {
					m.Put(key(k), val(k))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		// Overwrite churn: a fixed set of keys rewritten round after
		// round, so their old records die.
		defer wg.Done()
		defer stop.Add(1)
		for i := uint64(0); i < writerOps; i++ {
			k := 1<<40 + i%64
			m.Put(key(k), val(k+i))
		}
	}()

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(r+100) * 0xD1B54A32D192ED03)
			batch := make([]K, 48)
			ids := make([]uint64, len(batch))
			vals := make([]V, len(batch))
			found := make([]bool, len(batch))
			for stop.Load() < writers+1 {
				k := 1 + src.Uint64()%stableKeys
				if v, ok := m.Get(key(k)); !ok || !eq(v, val(k)) {
					errs <- fmt.Errorf("Get(%d) = (%v, %v), want (%v, true)", k, v, ok, val(k))
					return
				}
				for i := range batch {
					ids[i] = 1 + src.Uint64()%stableKeys
					batch[i] = key(ids[i])
				}
				if hits := m.GetBatch(batch, vals, found); hits != len(batch) {
					errs <- fmt.Errorf("GetBatch hit %d of %d stable keys", hits, len(batch))
					return
				}
				for i, k := range ids {
					if !found[i] || !eq(vals[i], val(k)) {
						errs <- fmt.Errorf("GetBatch[%d] key %d = (%v, %v), want (%v, true)", i, k, vals[i], found[i], val(k))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Resizes == 0 {
		t.Error("churn drove no resizes; the test exercised nothing")
	}
	if wantRebuilds && rebuilds(m, initialBuckets) == 0 {
		t.Error("overwrite churn drove no same-size rebuilds")
	}
}

// rebuilds counts the same-size resizes m's shards have completed since
// they held initial buckets each: all completed resizes, less the
// doublings the shards' bucket counts show.
func rebuilds[K comparable, V any](m *Map[K, V], initial int) int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		doublings := bits.Len(uint(sh.core.Buckets()/initial)) - 1
		n += sh.core.Resizes() - doublings
		sh.mu.RUnlock()
	}
	return n
}

// TestSeqSteadyStateNoFallbacks pins the seqlock health counters'
// steady-state contract: with no writer in flight, every optimistic
// read must succeed on its first attempt — zero retries, zero mutex
// fallbacks — no matter how many readers hammer the map concurrently,
// for inline keys and arena-held string keys alike. Any nonzero count
// here means the read path is paying for writer exclusion it does not
// need.
func TestSeqSteadyStateNoFallbacks(t *testing.T) {
	cfg := Config{
		Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 5,
		MaxLoadFactor: 0.9,
	}
	t.Run("uint64", func(t *testing.T) {
		steadyStateNoFallbacks(t, newU64(cfg),
			func(k uint64) uint64 { return k }, func(k uint64) uint64 { return k * 7 }, eqComparable[uint64])
	})
	t.Run("string-bytes", func(t *testing.T) {
		steadyStateNoFallbacks(t, NewKeyed[string, []byte](keyed.ForType[string](), cfg),
			func(k uint64) string { return fmt.Sprintf("key-%016x", k) }, varValue, bytes.Equal)
	})
}

func steadyStateNoFallbacks[K comparable, V any](t *testing.T, m *Map[K, V], key func(uint64) K, val func(uint64) V, eq func(V, V) bool) {
	const n = 5000
	for k := uint64(1); k <= n; k++ {
		m.Put(key(k), val(k))
	}
	for m.MigrateStep(256) > 0 {
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(r+1) * 0xA076_1D64_78BD_642F)
			batch := make([]K, 32)
			vals := make([]V, len(batch))
			found := make([]bool, len(batch))
			for i := 0; i < 5000; i++ {
				k := 1 + src.Uint64()%n
				if v, ok := m.Get(key(k)); !ok || !eq(v, val(k)) {
					t.Errorf("Get(%d) = (%v, %v)", k, v, ok)
					return
				}
				if i%16 == 0 {
					for j := range batch {
						batch[j] = key(1 + src.Uint64()%n)
					}
					m.GetBatch(batch, vals, found)
				}
			}
		}(r)
	}
	wg.Wait()

	st := m.Stats()
	if st.SeqRetries != 0 || st.SeqFallbacks != 0 {
		t.Errorf("steady-state reads retried %d times and fell back %d times; want 0/0",
			st.SeqRetries, st.SeqFallbacks)
	}
}

// TestSeqCountersCountFallbacks proves the counters actually count: a
// shard whose generation is parked odd (a stalled writer, simulated)
// forces Get to spin out its budget and take the lock, and forces
// GetBatch to route that shard's keys through the per-key fallback.
func TestSeqCountersCountFallbacks(t *testing.T) {
	m := newU64(Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 2, Seed: 13})
	m.Put(42, 99)
	sh, _ := m.route(42)

	sh.seq.Add(1) // park the generation odd: every optimistic attempt aborts
	if v, ok := m.Get(42); !ok || v != 99 {
		t.Fatalf("Get under a parked generation = (%d, %v), want (99, true)", v, ok)
	}
	vals := make([]uint64, 1)
	found := make([]bool, 1)
	if n := m.GetBatch([]uint64{42}, vals, found); n != 1 || vals[0] != 99 {
		t.Fatalf("GetBatch under a parked generation = %d hits, vals %v", n, vals)
	}
	sh.seq.Add(1) // release

	st := m.Stats()
	if st.SeqRetries != seqSpins {
		t.Errorf("SeqRetries = %d, want %d (one Get spinning out its budget)", st.SeqRetries, seqSpins)
	}
	if st.SeqFallbacks != 2 {
		t.Errorf("SeqFallbacks = %d, want 2 (one Get, one GetBatch key)", st.SeqFallbacks)
	}

	// Released: reads go back to the fast path and the counters freeze.
	if v, ok := m.Get(42); !ok || v != 99 {
		t.Fatalf("Get after release = (%d, %v)", v, ok)
	}
	if st2 := m.Stats(); st2.SeqRetries != st.SeqRetries || st2.SeqFallbacks != st.SeqFallbacks {
		t.Errorf("counters moved on a clean read: %d/%d -> %d/%d",
			st.SeqRetries, st.SeqFallbacks, st2.SeqRetries, st2.SeqFallbacks)
	}
}

// TestGetBatchMidMigration pins batched lookups against a map whose
// every shard has a nearly untouched resize backlog: each key must
// resolve whether it still lives in the old geometry or has already
// migrated to the new one. With Metrics attached, each hit on the
// digest-keyed sample must record the depth the lock-free probe resolves
// it at, new-geometry hits offset past d, and misses nothing: served
// reads only through GetBatch, so this is its live choice distribution.
func TestGetBatchMidMigration(t *testing.T) {
	const n = 4096
	m := newU64(Config{
		Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, Seed: 9,
		StashPerShard: 32, MaxLoadFactor: 0.7, MigrateBatch: 1,
	})
	keys := fillMidDoubling(t, m, n, func(k uint64) uint64 { return k }, func(k uint64) uint64 { return ^k })
	sampledMisses := 0
	for k := uint64(n + 1); k <= n+1024; k++ {
		keys = append(keys, k) // absent keys mixed in
		if _, tag := m.route(k); tag&sampleMask == 0 {
			sampledMisses++
		}
	}
	wantDepths, sampled := wantProbeDepths(t, m, keys)
	var beyond uint64
	for _, c := range wantDepths[m.d+1:] {
		beyond += c
	}
	if beyond == 0 || sampledMisses == 0 {
		t.Fatalf("%d sampled new-geometry hits, %d sampled misses; want both", beyond, sampledMisses)
	}
	mx := NewMetrics()
	m.SetMetrics(mx)
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	if hits := m.GetBatch(keys, vals, found); hits != n {
		t.Fatalf("GetBatch found %d of %d resident keys", hits, n)
	}
	for i, k := range keys {
		if k <= n && (!found[i] || vals[i] != ^k) {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, vals[i], found[i], ^k)
		}
		if k > n && found[i] {
			t.Fatalf("absent key %d reported present", k)
		}
	}
	checkProbeDepths(t, mx.ProbeDepth, wantDepths, sampled)
	// Drain and re-probe: the same batch against the settled geometry.
	for m.MigrateStep(256) > 0 {
	}
	if hits := m.GetBatch(keys, vals, found); hits != n {
		t.Fatalf("post-drain GetBatch found %d of %d resident keys", hits, n)
	}
}

// getBatch runs GetBatch into fresh output slices of len(keys).
func getBatch[K comparable, V any](m *Map[K, V], keys []K) ([]V, []bool) {
	vals, found := make([]V, len(keys)), make([]bool, len(keys))
	m.GetBatch(keys, vals, found)
	return vals, found
}

// TestMGet covers GetBatch's edge shapes, the map side of the wire's
// MGET: duplicate keys in one batch, empty batches, chunk-boundary
// lengths, and arena-held string keys through the same interface.
func TestMGet(t *testing.T) {
	m := newU64(Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 3})
	for k := uint64(1); k <= 100; k++ {
		m.Put(k, k+1000)
	}
	vals, found := getBatch(m, []uint64{5, 5, 999, 7, 5})
	want := []struct {
		v  uint64
		ok bool
	}{{1005, true}, {1005, true}, {0, false}, {1007, true}, {1005, true}}
	for i, w := range want {
		if found[i] != w.ok || (w.ok && vals[i] != w.v) {
			t.Errorf("GetBatch[%d] = (%d, %v), want (%d, %v)", i, vals[i], found[i], w.v, w.ok)
		}
	}
	if hits := m.GetBatch(nil, nil, nil); hits != 0 {
		t.Errorf("GetBatch(nil) found %d keys", hits)
	}
	// Lengths straddling the pipelining chunk: 1 under, exact, 1 over.
	for _, n := range []int{mgetChunk - 1, mgetChunk, mgetChunk + 1, 3 * mgetChunk} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i%100) + 1
		}
		vals, found := getBatch(m, keys)
		for i, k := range keys {
			if !found[i] || vals[i] != k+1000 {
				t.Fatalf("n=%d: GetBatch[%d] key %d = (%d, %v)", n, i, k, vals[i], found[i])
			}
		}
	}

	sm := NewKeyed[string, uint64](keyed.ForType[string](), Config{
		Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 3,
	})
	sm.Put("alpha", 1)
	sm.Put("beta", 2)
	vals2, found2 := getBatch(sm, []string{"beta", "gamma", "alpha"})
	if !found2[0] || vals2[0] != 2 || found2[1] || !found2[2] || vals2[2] != 1 {
		t.Errorf("string GetBatch = %v %v", vals2, found2)
	}

	defer func() {
		if recover() == nil {
			t.Error("GetBatch with short outputs did not panic")
		}
	}()
	m.GetBatch([]uint64{1, 2, 3}, make([]uint64, 2), make([]bool, 3))
}

// TestStatsSeqConsistency checks the lock-free Stats snapshot two ways.
// Quiesced, it must be exact: Len matches, capacity matches the settled
// geometry, and the bucket-load histogram accounts for every bucket and
// every non-stashed pair. Under write churn with resizes in flight, each
// call must still return an internally plausible snapshot — the
// per-shard histogram totals must equal the per-shard bucket counts
// implied by the capacities seen in the same pass (the old torn-read
// Stats could mix one geometry's buckets with another's stash).
func TestStatsSeqConsistency(t *testing.T) {
	m := newU64(Config{
		Shards: 4, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, Seed: 11,
		StashPerShard: 16, MaxLoadFactor: 0.7, MigrateBatch: 4,
	})
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		m.Put(k, k)
	}
	for m.MigrateStep(256) > 0 {
	}

	st := m.Stats()
	if st.Len != n || st.Len != m.Len() {
		t.Errorf("quiesced Stats.Len = %d, want %d", st.Len, n)
	}
	if st.Migrating != 0 {
		t.Errorf("quiesced Stats.Migrating = %d", st.Migrating)
	}
	slots := 2
	if got, want := int(st.BucketLoads.Total()), st.Capacity/slots; got != want {
		t.Errorf("histogram covers %d buckets, capacity implies %d", got, want)
	}
	weighted := 0
	for load := 0; load <= st.BucketLoads.MaxValue(); load++ {
		weighted += load * int(st.BucketLoads.Count(load))
	}
	if weighted != st.Len-st.Stashed {
		t.Errorf("histogram holds %d pairs, Len-Stashed = %d", weighted, st.Len-st.Stashed)
	}

	// Churn phase: Stats must stay plausible while shards resize.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.NewXoshiro256(99)
		for i := 0; i < 20000; i++ {
			k := 1 << 20 << uint(src.Uint64()%2) // two bands, forcing growth
			m.Put(uint64(k)+src.Uint64()%(1<<13), 1)
			if src.Uint64()%3 == 0 {
				m.Delete(uint64(k) + src.Uint64()%(1<<13))
			}
		}
		stop.Store(true)
	}()
	for !stop.Load() {
		st := m.Stats()
		if st.Len < n {
			t.Errorf("churn never deletes stable keys, yet Stats.Len = %d < %d", st.Len, n)
			break
		}
		if got := int(st.BucketLoads.Total()); got*slots != st.Capacity {
			t.Errorf("histogram covers %d buckets, capacity %d implies %d", got, st.Capacity, st.Capacity/slots)
			break
		}
	}
	wg.Wait()
}

// TestLockedFallbackMatchesProbe parks every shard's generation odd, as
// a stalled writer would leave it, so each read spins out its lock-free
// budget and runs the read-locked fallback — mid-doubling and
// mid-rebuild, where the fallback's probe must chase both geometries.
// Len and Stats under the parked generations must equal their lock-free
// values, and every key's Get, GetBatch and lockedGet must return the
// value and probe depth the lock-free probe returns once the generations
// are released.
func TestLockedFallbackMatchesProbe(t *testing.T) {
	doubling := Config{
		Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, Seed: 9,
		StashPerShard: 32, MaxLoadFactor: 0.7, MigrateBatch: 1,
	}
	t.Run("uint64/doubling", func(t *testing.T) {
		m := newU64(doubling)
		keys := fillMidDoubling(t, m, 4096, func(k uint64) uint64 { return k }, func(k uint64) uint64 { return ^k })
		lockedReadsMatchProbe(t, m, keys, eqComparable[uint64])
	})
	t.Run("string-bytes/doubling", func(t *testing.T) {
		m := NewKeyed[string, []byte](keyed.ForType[string](), doubling)
		keys := fillMidDoubling(t, m, 4096, func(k uint64) string { return fmt.Sprintf("key-%06d", k) }, varValue)
		lockedReadsMatchProbe(t, m, keys, bytes.Equal)
	})
	t.Run("string-bytes/rebuild", func(t *testing.T) {
		m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
			Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 4, D: 3, Seed: 5,
			StashPerShard: 4, MigrateBatch: 1,
		})
		var keys []string
		for k := uint64(0); k < 48; k++ {
			keys = append(keys, fmt.Sprintf("key-%04d", k))
			if !m.Put(keys[k], varValue(k)) {
				t.Fatalf("fill rejected %s", keys[k])
			}
		}
		// Overwrite round after round until some shard is part-way
		// through a same-size rebuild, with pairs in both geometries.
		midRebuild := func() bool {
			for i := range m.shards {
				c := m.shards[i].core
				if next := c.Next(); next != nil && next.Buckets() == c.Buckets() && next.Len() >= 4 && c.Pending() >= 4 {
					return true
				}
			}
			return false
		}
		for i := uint64(0); !midRebuild(); i++ {
			if i == 1<<16 {
				t.Fatal("overwrites never left a shard mid-rebuild")
			}
			k := i % uint64(len(keys))
			if !m.Put(keys[k], varValue(k+i)) {
				t.Fatalf("overwrite of %s rejected", keys[k])
			}
		}
		lockedReadsMatchProbe(t, m, keys, bytes.Equal)
	})
}

// fillMidDoubling Puts keys 1..n into m, whose MigrateBatch is 1, and
// requires the fill to leave a doubling in flight. It returns the keys.
func fillMidDoubling[K comparable, V any](t *testing.T, m *Map[K, V], n uint64, key func(uint64) K, val func(uint64) V) []K {
	t.Helper()
	keys := make([]K, 0, n)
	for k := uint64(1); k <= n; k++ {
		for !m.Put(key(k), val(k)) { // drain a little and retry
			if m.MigrateStep(64) == 0 {
				t.Fatalf("fill rejected key %d with nothing to migrate", k)
			}
		}
		keys = append(keys, key(k))
	}
	if st := m.Stats(); st.Migrating == 0 {
		t.Fatal("no doubling in flight; the reads would probe one geometry")
	}
	return keys
}

// lockedReadsMatchProbe runs the parked-generation reads on m, which no
// other goroutine touches, against the lock-free reference.
func lockedReadsMatchProbe[K comparable, V any](t *testing.T, m *Map[K, V], keys []K, eq func(V, V) bool) {
	t.Helper()
	flip := func() { // odd parks every shard's generation; odd again releases it
		for i := range m.shards {
			m.shards[i].seq.Add(1)
		}
	}

	flip()
	lockedLen, lockedStats := m.Len(), m.Stats()
	flip()
	if n := m.Len(); lockedLen != n {
		t.Errorf("Len under parked generations = %d, lock-free %d", lockedLen, n)
	}
	free := m.Stats()
	if !reflect.DeepEqual(lockedStats, free) {
		t.Errorf("Stats under parked generations = %+v\nlock-free %+v", lockedStats, free)
	}

	type result struct {
		val   V
		depth int
		ok    bool
	}
	want := make([]result, len(keys))
	oldGeom, newGeom := 0, 0
	for i, k := range keys {
		sh, tag := m.route(k)
		v, depth, ok, done := m.seqGet(sh, tag, k)
		if !done || !ok {
			t.Fatalf("lock-free probe of resident key %v = (%v, %v), done %v", k, ok, depth, done)
		}
		want[i] = result{v, depth, ok}
		if depth > m.d {
			newGeom++
		} else {
			oldGeom++
		}
	}
	if oldGeom == 0 || newGeom == 0 {
		t.Fatalf("keys resolve %d in the old geometry, %d in the new; want both", oldGeom, newGeom)
	}
	wantDepths, sampled := wantProbeDepths(t, m, keys)

	check := func(how string, k K, w result, v V, depth int, ok bool) {
		t.Helper()
		if ok != w.ok || !eq(v, w.val) || depth != w.depth {
			t.Fatalf("%s(%v) = (%v, depth %d, %v), lock-free (%v, depth %d, %v)", how, k, v, depth, ok, w.val, w.depth, w.ok)
		}
	}
	mx := NewMetrics()
	vals, found := make([]V, len(keys)), make([]bool, len(keys))
	flip()
	for i, k := range keys {
		sh, tag := m.route(k)
		v, ok := m.Get(k)
		check("Get", k, want[i], v, want[i].depth, ok)
		v, depth, ok := m.getRouted(sh, tag, k)
		check("Get's routed read", k, want[i], v, depth, ok)
		v, depth, ok = m.lockedGet(sh, tag, k)
		check("lockedGet", k, want[i], v, depth, ok)
	}
	m.SetMetrics(mx) // GetBatch reports depths only through the sample
	m.GetBatch(keys, vals, found)
	m.SetMetrics(nil)
	flip()
	for i, k := range keys {
		check("GetBatch", k, want[i], vals[i], want[i].depth, found[i])
	}
	checkProbeDepths(t, mx.ProbeDepth, wantDepths, sampled)

	// Each Get and routed read spun out and fell back, as did every
	// GetBatch key; lockedGet, Len and Stats count neither.
	st := m.Stats()
	n := int64(len(keys))
	if got := st.SeqFallbacks - free.SeqFallbacks; got != 3*n {
		t.Errorf("parked reads counted %d fallbacks, want %d", got, 3*n)
	}
	if got := st.SeqRetries - free.SeqRetries; got != 2*seqSpins*n {
		t.Errorf("parked reads counted %d retries, want %d", got, 2*seqSpins*n)
	}
}

// wantProbeDepths returns the probe-depth histogram one read of each of
// keys should record — the lock-free probe's depth of every hit whose
// in-shard tag is on the 1-in-64 sample, by depth 0..2d+1 — and the
// number of such hits.
func wantProbeDepths[K comparable, V any](t *testing.T, m *Map[K, V], keys []K) ([]uint64, uint64) {
	t.Helper()
	want := make([]uint64, 2*m.d+2)
	var sampled uint64
	for _, k := range keys {
		sh, tag := m.route(k)
		_, depth, ok, done := m.seqGet(sh, tag, k)
		if !done {
			t.Fatalf("lock-free probe of %v spun out with no writer running", k)
		}
		if ok && tag&sampleMask == 0 {
			want[depth]++
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no key on the sample; the histogram goes untested")
	}
	return want, sampled
}

// checkProbeDepths requires h to hold exactly the sampled depths want,
// every one of them at most 2d+1.
func checkProbeDepths(t *testing.T, h *obs.Histogram, want []uint64, sampled uint64) {
	t.Helper()
	var s obs.HistSnapshot
	h.Snapshot(&s)
	if s.Count != sampled {
		t.Fatalf("ProbeDepth recorded %d depths, want one per sampled hit (%d)", s.Count, sampled)
	}
	if le := s.CountLE(uint64(len(want) - 1)); le != s.Count {
		t.Fatalf("%d recorded depths exceed 2d+1 = %d", s.Count-le, len(want)-1)
	}
	for depth, c := range want {
		if s.Buckets[depth] != c {
			t.Errorf("depth %d recorded %d times, want %d", depth, s.Buckets[depth], c)
		}
	}
}
