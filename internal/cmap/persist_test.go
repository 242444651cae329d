package cmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// expectedVal is the validity oracle for recovery tests: every Put in
// them stores expectedVal(k), so any (k, v) pair read back is checkably
// intact without tracking per-key history.
func expectedVal(k uint64) uint64 { return k*0x9E3779B97F4A7C15 + 1 }

// TestSnapshotGolden pins the snapshot format byte for byte: a seeded
// map's snapshot must reproduce testdata/golden_v1.snap exactly. If this
// fails because the format deliberately changed, bump the version,
// re-pin with -update, and keep a reader for the old version.
func TestSnapshotGolden(t *testing.T) {
	m := newU64(Config{Shards: 4, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, Seed: 97, StashPerShard: 8})
	for k := uint64(1); k <= 200; k++ {
		if !m.Put(k, expectedVal(k)) {
			t.Fatalf("seed fill rejected key %d", k)
		}
	}
	for k := uint64(3); k <= 200; k += 5 {
		m.Delete(k) // exercise holes and stash drains in the pinned state
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden_v1.snap")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to pin)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes diverged from the pinned golden file: got %d bytes, want %d — the on-disk format changed", buf.Len(), len(want))
	}

	// And the pinned bytes must still load: the golden file is also the
	// compatibility corpus for this format version.
	got, err := loadU64(bytes.NewReader(want), Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, StashPerShard: 8, MaxLoadFactor: 0.85})
	if err != nil {
		t.Fatalf("loading the golden file: %v", err)
	}
	if got.Len() != m.Len() {
		t.Fatalf("golden reload holds %d pairs, want %d", got.Len(), m.Len())
	}
	for k := uint64(1); k <= 200; k++ {
		deleted := k >= 3 && (k-3)%5 == 0
		v, ok := got.Get(k)
		if ok == deleted {
			t.Fatalf("golden reload: key %d present=%v, want %v", k, ok, !deleted)
		}
		if ok && v != expectedVal(k) {
			t.Fatalf("golden reload: key %d = %d, want %d", k, v, expectedVal(k))
		}
	}
}

// TestSnapshotRoundTripAnyGeometry reloads one snapshot at geometries on
// every side of the original — more/fewer shards, more/fewer buckets —
// and requires exact content equality each time. This is the
// geometry-independence contract in its pure form.
func TestSnapshotRoundTripAnyGeometry(t *testing.T) {
	const keys = 5000
	src := newU64(Config{Shards: 8, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 11,
		StashPerShard: 32, MaxLoadFactor: 0.8, MigrateBatch: 16})
	resident := make(map[uint64]uint64, keys)
	r := rng.NewXoshiro256(5)
	for len(resident) < keys {
		k := 1 + r.Uint64()%(3*keys)
		if r.Uint64()%4 == 0 {
			src.Delete(k)
			delete(resident, k)
			continue
		}
		src.Put(k, expectedVal(k))
		resident[k] = expectedVal(k)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{
		{Shards: 8, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, StashPerShard: 32, MaxLoadFactor: 0.8},  // same shape
		{Shards: 1, BucketsPerShard: 512, SlotsPerBucket: 4, D: 3, StashPerShard: 64, MaxLoadFactor: 0.8}, // unsharded
		{Shards: 64, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, StashPerShard: 32, MaxLoadFactor: 0.8},  // many small shards
		{Shards: 4, BucketsPerShard: 16, SlotsPerBucket: 2, D: 4, StashPerShard: 16, MaxLoadFactor: 0.7},  // tiny start, different d, grows a lot
		{Shards: 16, BucketsPerShard: 4096, SlotsPerBucket: 4, D: 2, StashPerShard: 32},                   // fixed capacity, oversized
	} {
		cfg.Seed = 999 // must be overridden by the snapshot's seed
		got, err := loadU64(bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatalf("load at %+v: %v", cfg, err)
		}
		if got.Len() != len(resident) {
			t.Fatalf("load at shards=%d buckets=%d: Len %d, want %d", cfg.Shards, cfg.BucketsPerShard, got.Len(), len(resident))
		}
		for k, v := range resident {
			if gv, ok := got.Get(k); !ok || gv != v {
				t.Fatalf("load at shards=%d buckets=%d: key %d = (%d, %v), want (%d, true)",
					cfg.Shards, cfg.BucketsPerShard, k, gv, ok, v)
			}
		}
		// Range agrees with Len and visits no phantoms.
		seen := 0
		got.Range(func(k, v uint64) bool {
			if want, ok := resident[k]; !ok || v != want {
				t.Fatalf("Range visited (%d, %d), want (%d, %v)", k, v, resident[k], true)
			}
			seen++
			return true
		})
		if seen != len(resident) {
			t.Fatalf("Range visited %d pairs, want %d", seen, len(resident))
		}
	}
}

// TestCrashRecoveryUnderChurn is the crash-recovery criterion (run
// under -race via `make race` and the CI race job): a snapshot taken
// while writers churn the map concurrently must reload — at 4× and at
// ¼ the bucket count, and at different shard counts — with zero lost,
// duplicated or corrupted keys. "Lost" is checked against a stable key
// set written before the snapshot began and never touched again;
// churned keys are checked for validity (any present key must carry its
// one legal value) since their membership is racing the snapshot by
// design.
func TestCrashRecoveryUnderChurn(t *testing.T) {
	const (
		workers      = 4
		stablePerW   = 800
		churnPerW    = 400
		stableOffset = 1 << 20
	)
	m := newU64(Config{Shards: 4, BucketsPerShard: 128, SlotsPerBucket: 4, D: 3, Seed: 23,
		StashPerShard: 32, MaxLoadFactor: 0.8, MigrateBatch: 8})

	// Phase 1: the stable set, fully acknowledged before the snapshot.
	for w := 0; w < workers; w++ {
		for i := uint64(1); i <= stablePerW; i++ {
			k := uint64(w+1)<<48 | stableOffset | i
			if !m.Put(k, expectedVal(k)) {
				t.Fatalf("stable fill rejected key %#x", k)
			}
		}
	}

	// Phase 2: churn racing the snapshot.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXoshiro256(rng.Mix64(uint64(w) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(w+1)<<48 | (1 + src.Uint64()%churnPerW)
				if src.Uint64()%3 == 0 {
					m.Delete(k)
				} else {
					m.Put(k, expectedVal(k))
				}
			}
		}(w)
	}
	var buf bytes.Buffer
	err := m.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("snapshot under churn: %v", err)
	}

	for _, cfg := range []Config{
		// 4× the bucket count, same shards.
		{Shards: 4, BucketsPerShard: 512, SlotsPerBucket: 4, D: 3, StashPerShard: 32, MaxLoadFactor: 0.8},
		// ¼ the bucket count (growth re-expands as needed), 4× the shards.
		{Shards: 16, BucketsPerShard: 32, SlotsPerBucket: 4, D: 3, StashPerShard: 32, MaxLoadFactor: 0.8},
		// ¼ the buckets at the original shard count — the pure shrink.
		{Shards: 4, BucketsPerShard: 32, SlotsPerBucket: 4, D: 3, StashPerShard: 32, MaxLoadFactor: 0.8},
	} {
		got, err := loadU64(bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatalf("reload at %+v: %v", cfg, err)
		}
		// Zero lost: every stable key, exact value.
		for w := 0; w < workers; w++ {
			for i := uint64(1); i <= stablePerW; i++ {
				k := uint64(w+1)<<48 | stableOffset | i
				v, ok := got.Get(k)
				if !ok {
					t.Fatalf("reload at shards=%d buckets=%d lost stable key %#x", cfg.Shards, cfg.BucketsPerShard, k)
				}
				if v != expectedVal(k) {
					t.Fatalf("reload corrupted stable key %#x: %d != %d", k, v, expectedVal(k))
				}
			}
		}
		// Zero duplicated / corrupted: Range visits each key once, every
		// value is the key's one legal value, and the count matches Len.
		seen := make(map[uint64]struct{}, got.Len())
		got.Range(func(k, v uint64) bool {
			if _, dup := seen[k]; dup {
				t.Fatalf("reload duplicated key %#x", k)
			}
			seen[k] = struct{}{}
			if v != expectedVal(k) {
				t.Fatalf("reload corrupted key %#x: %d != %d", k, v, expectedVal(k))
			}
			return true
		})
		if len(seen) != got.Len() {
			t.Fatalf("Range saw %d keys, Len says %d", len(seen), got.Len())
		}
		if len(seen) < workers*stablePerW {
			t.Fatalf("reload holds %d keys, fewer than the %d stable ones", len(seen), workers*stablePerW)
		}
	}
}

// TestSnapshotRoundTripProof is the PR's acceptance round trip: a
// string-keyed map grown through multiple online resizes snapshots
// mid-churn, reloads at a different shard/bucket geometry, and the
// reloaded map (a) passes the differential oracle seeded with its
// recovered content and (b) is chi-square-indistinguishable (p-gate
// 1e-4, as in the resize tests) from a map built fresh at the reload
// geometry with the same pairs — recovered placement is as good as
// fresh placement.
func TestSnapshotRoundTripProof(t *testing.T) {
	const (
		keySpace = 6000
		seed     = 77
	)
	keyOf := func(id uint64) string { return fmt.Sprintf("user:%08x", id) }
	hasher := keyed.ForType[string]()
	grown := NewKeyed[string, uint64](hasher, Config{
		Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: seed,
		StashPerShard: 32, MaxLoadFactor: 0.75, MigrateBatch: 8,
	})

	// Grow through resizes under churn (1 delete per ~5 ops).
	src := rng.NewXoshiro256(3)
	for grown.Len() < 4400 {
		id := 1 + src.Uint64()%keySpace
		if src.Uint64()%5 == 0 {
			grown.Delete(keyOf(id))
			continue
		}
		if !grown.Put(keyOf(id), id*3) {
			t.Fatal("put rejected while growth is enabled")
		}
	}
	if st := grown.Stats(); st.Resizes < 2 {
		t.Fatalf("map grew through %d resizes, want ≥ 2 (shrink the initial geometry)", st.Resizes)
	}

	// Snapshot mid-churn: a writer keeps mutating while the snapshot
	// streams shard by shard.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		csrc := rng.NewXoshiro256(4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := 1 + csrc.Uint64()%keySpace
			if csrc.Uint64()%4 == 0 {
				grown.Delete(keyOf(id))
			} else {
				grown.Put(keyOf(id), id*3)
			}
		}
	}()
	var buf bytes.Buffer
	err := grown.Snapshot(&buf, keyed.CodecFor[string](), keyed.Uint64Codec)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("snapshot mid-churn: %v", err)
	}

	// Reload at a different geometry: 4× the shards, a fixed (no-growth)
	// bucket count unrelated to any the grown map passed through.
	reloadCfg := Config{Shards: 16, BucketsPerShard: 128, SlotsPerBucket: 4, D: 3, StashPerShard: 64}
	reloaded, err := LoadKeyed[string, uint64](bytes.NewReader(buf.Bytes()), hasher,
		keyed.CodecFor[string](), keyed.Uint64Codec, reloadCfg)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}

	// Collect the recovered content (checking Range/Len/dup consistency
	// on the way) — it seeds both the oracle and the fresh build.
	oracle := make(map[string]uint64, reloaded.Len())
	reloaded.Range(func(k string, v uint64) bool {
		if _, dup := oracle[k]; dup {
			t.Fatalf("reload duplicated key %q", k)
		}
		oracle[k] = v
		return true
	})
	if len(oracle) != reloaded.Len() {
		t.Fatalf("Range saw %d keys, Len says %d", len(oracle), reloaded.Len())
	}

	// (a) Differential oracle over the reloaded map: random ops on the
	// same key domain, starting from the recovered content.
	ops := testutil.MapOps(testutil.RandomOps(40000, keySpace, 0.4, 0.25, 9), keyOf,
		func(v uint64) uint64 { return v })
	if err := testutil.RunSeeded[string, uint64](reloaded, oracle, ops, testutil.Options{TrackValues: true}); err != nil {
		t.Fatalf("reloaded map diverged from the oracle: %v", err)
	}

	// (b) Chi-square: rebuild the recovered content fresh at the reload
	// geometry; bucket-load distributions must be indistinguishable.
	// (The oracle map was mutated by (a), so re-collect.)
	content := make(map[string]uint64, reloaded.Len())
	reloaded2, err := LoadKeyed[string, uint64](bytes.NewReader(buf.Bytes()), hasher,
		keyed.CodecFor[string](), keyed.Uint64Codec, reloadCfg)
	if err != nil {
		t.Fatal(err)
	}
	reloaded2.Range(func(k string, v uint64) bool { content[k] = v; return true })
	fresh := NewKeyed[string, uint64](hasher, func() Config { c := reloadCfg; c.Seed = seed; return c }())
	for k, v := range content {
		if !fresh.Put(k, v) {
			t.Fatalf("fresh build rejected %q", k)
		}
	}
	gst, fst := reloaded2.Stats(), fresh.Stats()
	r := stats.ChiSquareHomogeneity(&gst.BucketLoads, &fst.BucketLoads, 5)
	if r.P < 1e-4 {
		t.Fatalf("reloaded vs fresh load distributions distinguishable: chi2=%.2f dof=%d p=%.2e", r.Chi2, r.Dof, r.P)
	}
}

// TestLoadRejectsWrongHasher: a snapshot written under one hasher must
// not silently load under another — the first-record digest check
// catches it.
func TestLoadRejectsWrongHasher(t *testing.T) {
	m := NewKeyed[uint64, uint64](keyed.Uint64, Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, Seed: 5})
	for k := uint64(1); k <= 50; k++ {
		m.Put(k, k)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec); err != nil {
		t.Fatal(err)
	}
	// A different hasher: the canonical digest with flipped low bits.
	other := func(sk hashes.SipKey, k uint64) uint64 { return keyed.Uint64(sk, k) ^ 0xFFFF }
	if _, err := LoadKeyed[uint64, uint64](bytes.NewReader(buf.Bytes()), other,
		keyed.Uint64Codec, keyed.Uint64Codec, Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3}); err == nil {
		t.Fatal("loading under a different hasher must fail")
	}
}

// TestLoadRejectsCorruptStream: corruption inside the stream must fail
// the load with ErrCorrupt, not build a partial map silently.
func TestLoadRejectsCorruptStream(t *testing.T) {
	m := newU64(Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, Seed: 5})
	for k := uint64(1); k <= 200; k++ {
		m.Put(k, k)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-10] ^= 0x40 // damage the last section
	_, err := loadU64(bytes.NewReader(data), Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, MaxLoadFactor: 0.85})
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("corrupt stream loaded: err = %v", err)
	}
}

// TestLoadRejectsOverfullFixedGeometry: with growth disabled, a
// snapshot that cannot fit must error rather than drop records.
func TestLoadRejectsOverfullFixedGeometry(t *testing.T) {
	m := newU64(Config{Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 5, MaxLoadFactor: 0.8})
	for k := uint64(1); k <= 2000; k++ {
		m.Put(k, k)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, keyed.Uint64Codec, keyed.Uint64Codec); err != nil {
		t.Fatal(err)
	}
	_, err := loadU64(bytes.NewReader(buf.Bytes()), Config{Shards: 1, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, StashPerShard: 4})
	if err == nil {
		t.Fatal("2000 pairs loaded into a 32-slot fixed geometry")
	}
}

// bytesView decodes a []byte value as a view of its record, as served's
// codec does: the loader holds it only until its section ends.
var bytesView = keyed.Codec[[]byte]{
	Append: func(dst, v []byte) []byte { return append(dst, v...) },
	Decode: func(v []byte) ([]byte, error) { return v, nil },
}

// writeSections returns a snapshot under seed whose sections hold
// sizes[s] records each, record i being keyOf(i) → valOf(i) with its
// digest under h.
func writeSections[K comparable, V any](t testing.TB, h keyed.Hasher[K], kc keyed.Codec[K], vc keyed.Codec[V],
	seed uint64, sizes []int, keyOf func(int) K, valOf func(int) V) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := persist.NewSnapshotWriter(&buf, persist.Header{Sections: uint32(len(sizes)), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sk := hashes.SipKeyFromSeed(seed)
	i := 0
	for _, n := range sizes {
		if err := sw.BeginSection(); err != nil {
			t.Fatal(err)
		}
		for end := i + n; i < end; i++ {
			k := keyOf(i)
			if err := sw.Record(kc.Append(nil, k), vc.Append(nil, valOf(i)), h(sk, k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.EndSection(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadMatchesPuts loads snap at cfg, and places the same records with
// PutDigest, in snapshot order, into a fresh map of cfg. The two maps
// must agree on Range order (so on every pair) and on Stats, and the
// loaded map's load histogram must count every bucket and every pair
// outside the stashes. It returns the loaded map, or an error naming the
// first difference; a geometry that rejects a record must fail both
// ways, and then it returns neither.
func loadMatchesPuts[K comparable, V any](snap []byte, h keyed.Hasher[K], kc keyed.Codec[K], vc keyed.Codec[V],
	cfg Config, eq func(a, b V) bool) (*Map[K, V], error) {
	loaded, loadErr := LoadKeyed(bytes.NewReader(snap), h, kc, vc, cfg)
	sr, err := persist.NewSnapshotReader(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	cfg.Seed = sr.Header().Seed
	placed := NewKeyed[K, V](h, cfg)
	rejected := false
	for !rejected && sr.Next() {
		kb, vb, digest := sr.Record()
		k, err := kc.Decode(kb)
		if err != nil {
			return nil, err
		}
		v, err := vc.Decode(vb)
		if err != nil {
			return nil, err
		}
		rejected = !PutDigest(placed, digest, k, v)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if rejected || loadErr != nil {
		if rejected && loadErr != nil {
			return nil, nil
		}
		return nil, fmt.Errorf("LoadKeyed error %v, yet PutDigest rejected a record: %v", loadErr, rejected)
	}

	type pair struct {
		k K
		v V
	}
	pairs := func(m *Map[K, V]) (ps []pair) {
		m.Range(func(k K, v V) bool { ps = append(ps, pair{k, v}); return true })
		return ps
	}
	lp, pp := pairs(loaded), pairs(placed)
	if len(lp) != len(pp) {
		return nil, fmt.Errorf("Range visits %d loaded pairs, %d placed ones", len(lp), len(pp))
	}
	for i := range lp {
		if lp[i].k != pp[i].k || !eq(lp[i].v, pp[i].v) {
			return nil, fmt.Errorf("Range position %d: loaded (%v, %v), placed (%v, %v)", i, lp[i].k, lp[i].v, pp[i].k, pp[i].v)
		}
	}
	ls, ps := loaded.Stats(), placed.Stats()
	if ls.Len != ps.Len || ls.Capacity != ps.Capacity || ls.Stashed != ps.Stashed || ls.Resizes != ps.Resizes ||
		ls.Migrating != ps.Migrating || !reflect.DeepEqual(ls.BucketLoads, ps.BucketLoads) {
		return nil, fmt.Errorf("Stats differ:\n loaded %+v\n placed %+v", ls, ps)
	}
	var buckets, held int64
	for load := 0; load <= ls.BucketLoads.MaxValue(); load++ {
		buckets += ls.BucketLoads.Count(load)
		held += int64(load) * ls.BucketLoads.Count(load)
	}
	if int(buckets)*cfg.SlotsPerBucket != ls.Capacity || int(held) != ls.Len-ls.Stashed {
		return nil, fmt.Errorf("load histogram counts %d buckets holding %d pairs; Capacity %d, Len %d, Stashed %d",
			buckets, held, ls.Capacity, ls.Len, ls.Stashed)
	}
	return loaded, nil
}

// TestLoadKeyedMatchesPutDigest: the windowed load builds the map that
// placing the snapshot's records one PutDigest at a time, in snapshot
// order, builds — with sections that end short of, at and past a window
// boundary, for an inline and an arena layout, presized as recovery
// presizes and from a small geometry that resizes through the load.
func TestLoadKeyedMatchesPutDigest(t *testing.T) {
	const w = loadChunk
	sizes := []int{0, 1, w - 1, w, w + 1, 3*w + 5}
	total := 0
	for _, n := range sizes {
		total += n
	}
	presized := Config{Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.9}
	presized.BucketsPerShard = BucketsFor(presized, total)
	growing := Config{Shards: 2, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.8, MigrateBatch: 1}

	u64Key := func(i int) uint64 { return uint64(i)*7919 + 1 }
	u64 := writeSections(t, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, 7, sizes, u64Key,
		func(i int) uint64 { return expectedVal(u64Key(i)) })
	strKey := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	str := writeSections(t, keyed.ForType[string](), keyed.StringCodec, bytesView, 7, sizes, strKey,
		func(i int) []byte { return varValue(uint64(i)) })

	for _, g := range []struct {
		name  string
		cfg   Config
		grows bool // resizes during the load
	}{{"presized", presized, false}, {"growing", growing, true}} {
		t.Run("uint64/"+g.name, func(t *testing.T) {
			m, err := loadMatchesPuts(u64, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, g.cfg, eqComparable[uint64])
			if err != nil || m == nil {
				t.Fatalf("loaded map differs from PutDigest placement: %v", err)
			}
			for i := 0; i < total; i++ {
				if v, ok := m.Get(u64Key(i)); !ok || v != expectedVal(u64Key(i)) {
					t.Fatalf("key %d = (%d, %v)", u64Key(i), v, ok)
				}
			}
			if st := m.Stats(); (st.Resizes > 0) != g.grows {
				t.Fatalf("%d resizes during the %s load", st.Resizes, g.name)
			}
		})
		t.Run("string-bytes/"+g.name, func(t *testing.T) {
			m, err := loadMatchesPuts(str, keyed.ForType[string](), keyed.StringCodec, bytesView, g.cfg, bytes.Equal)
			if err != nil || m == nil {
				t.Fatalf("loaded map differs from PutDigest placement: %v", err)
			}
			for i := 0; i < total; i++ {
				if v, ok := m.Get(strKey(i)); !ok || !bytes.Equal(v, varValue(uint64(i))) {
					t.Fatalf("key %s = (%q, %v)", strKey(i), v, ok)
				}
			}
		})
	}
}

// TestLoadRejectsCorruptRecordMidWindow: a record that fails to parse
// while the window holds earlier records of its section fails the load
// with ErrCorrupt, and no map comes back.
func TestLoadRejectsCorruptRecordMidWindow(t *testing.T) {
	snap := writeSections(t, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, 5, []int{10},
		func(i int) uint64 { return uint64(i) + 1 }, func(i int) uint64 { return expectedVal(uint64(i) + 1) })
	// Declare 6 records where the payload holds 10, and re-seal the
	// section's CRC: the sixth record leaves four records' bytes behind,
	// a malformed section that still passes its checksum.
	const sec = 48 // the section header follows the 48-byte file header
	binary.LittleEndian.PutUint64(snap[sec:], 6)
	end := sec + 16 + int(binary.LittleEndian.Uint64(snap[sec+8:]))
	binary.LittleEndian.PutUint32(snap[end:], crc32.Checksum(snap[sec:end], crc32.MakeTable(crc32.Castagnoli)))
	m, err := loadU64(bytes.NewReader(snap), Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.85})
	if !errors.Is(err, persist.ErrCorrupt) || m != nil {
		t.Fatalf("a malformed sixth record loaded: map %v, err %v", m != nil, err)
	}
}
