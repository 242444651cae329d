package cmap

// Tests for the arena that holds string keys and []byte values out of
// line: the views Get, GetBatch and Range return, and the same-size
// rebuild that reclaims dead record bytes.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/keyed"
)

// TestArenaViewsStable takes a value view through each read surface —
// Get, GetBatch and Range (its key too) — and requires every view to
// stay byte-identical while its key is overwritten, then deleted, while
// the shard doubles and while it rebuilds. Chunks are append-only, so a
// view is never written again, whatever happens to the pair it came
// from.
func TestArenaViewsStable(t *testing.T) {
	m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
		Shards: 2, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, Seed: 3,
		MaxLoadFactor: 0.8, MigrateBatch: 4,
	})
	const key = "the-key"
	want := []byte("the original value")
	m.Put(key, want)

	fromGet, ok := m.Get(key)
	if !ok {
		t.Fatal("Get missed")
	}
	vals, found := getBatch(m, []string{key})
	if !found[0] {
		t.Fatal("GetBatch missed")
	}
	fromBatch := vals[0]
	var rangeKey string
	var fromRange []byte
	m.Range(func(k string, v []byte) bool {
		rangeKey, fromRange = k, v
		return false
	})
	check := func(stage string) {
		t.Helper()
		for name, v := range map[string][]byte{"Get": fromGet, "GetBatch": fromBatch, "Range": fromRange} {
			if !bytes.Equal(v, want) {
				t.Fatalf("after %s: %s view = %q, want %q", stage, name, v, want)
			}
		}
		if rangeKey != key {
			t.Fatalf("after %s: Range key view = %q, want %q", stage, rangeKey, key)
		}
	}
	check("the reads")

	for i := 0; i < 10; i++ {
		m.Put(key, []byte(fmt.Sprintf("overwrite %d, longer than the original value", i)))
	}
	check("overwrites")
	m.Delete(key)
	check("delete")

	resizes := m.Stats().Resizes
	for i := 0; m.Stats().Resizes == resizes; i++ {
		if i == 1<<16 {
			t.Fatal("no doubling after 65536 inserts")
		}
		m.Put(fmt.Sprintf("filler-%d", i), []byte("filler"))
	}
	for m.MigrateStep(64) > 0 {
	}
	check("a doubling")

	before := rebuilds(m, 8)
	for i := 0; rebuilds(m, 8) == before; i++ {
		if i == 1<<16 {
			t.Fatal("no rebuild after 65536 overwrites")
		}
		m.Put("filler-0", bytes.Repeat([]byte{byte(i)}, 200))
		for m.MigrateStep(64) > 0 {
		}
	}
	check("a rebuild")
}

// TestArenaReclamationBound overwrites the same keys round after round:
// without reclamation the arena would grow by a full copy of the data
// per round. With it, once each round's migrations drain, the arena
// holds under twice the live bytes plus one chunk per shard.
func TestArenaReclamationBound(t *testing.T) {
	const (
		keys   = 1000
		rounds = 60
		shards = 4
		valLen = 200
	)
	m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
		Shards: shards, BucketsPerShard: 128, SlotsPerBucket: 4, D: 3, Seed: 9,
		MaxLoadFactor: 0.9,
	})
	live := int64(0)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%06d", k)
		live += int64(1 + 1 + 1 + len(key) + valLen) // a uvarint length each (the value's needs two bytes) + the bytes
	}
	bound := 2*live + shards*(1<<20)
	val := make([]byte, valLen)
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			val[0], val[1] = byte(r), byte(k)
			m.Put(fmt.Sprintf("key-%06d", k), val)
		}
		for m.MigrateStep(64) > 0 {
		}
		if st := m.Stats(); st.ArenaBytes > bound {
			t.Fatalf("round %d: arena holds %d bytes for %d live, over the bound %d", r, st.ArenaBytes, live, bound)
		}
	}
	if rebuilds(m, 128) == 0 {
		t.Fatal("no rebuild ran; the bound held only because the test wrote too little")
	}
	if written := int64(rounds) * live; written <= bound {
		t.Fatalf("the test wrote %d bytes, within the bound %d: it proves nothing", written, bound)
	}
	for k := 0; k < keys; k++ {
		v, ok := m.Get(fmt.Sprintf("key-%06d", k))
		if !ok || len(v) != valLen || v[0] != byte(rounds-1) || v[1] != byte(k) {
			t.Fatalf("key %d after the rounds = (%v..., %v)", k, v[:min(2, len(v))], ok)
		}
	}
}

// TestArenaRebuildKeepsFixedCapacity runs same-size rebuilds on a map
// with resize disabled. Overwrites of a full shard rebuild it again and
// again without growing it. A Put rejected on a geometry that needs a
// rebuild starts the rebuild but is not retried into the rebuilt
// geometry, whose empty buckets would otherwise take the pair past the
// map's fixed capacity.
func TestArenaRebuildKeepsFixedCapacity(t *testing.T) {
	const buckets = 16
	m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
		Shards: 1, BucketsPerShard: buckets, SlotsPerBucket: 4, D: 3, Seed: 5,
		StashPerShard: 4, MigrateBatch: 4,
	})
	sh := &m.shards[0]
	want := make(map[string][]byte)
	next := 0
	// fill Puts fresh keys until one is rejected, and returns it.
	fill := func() string {
		for ; ; next++ {
			k := fmt.Sprintf("key-%04d", next)
			if !m.Put(k, []byte(k)) {
				next++
				return k
			}
			want[k] = []byte(k)
		}
	}
	check := func(stage string) {
		t.Helper()
		for m.MigrateStep(64) > 0 {
		}
		if n := m.Len(); n != len(want) {
			t.Fatalf("after %s: Len = %d, want %d", stage, n, len(want))
		}
		for k, v := range want {
			if got, ok := m.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("after %s: Get(%s) = (%q, %v), want %q", stage, k, got, ok, v)
			}
		}
		if b := sh.core.Buckets(); b != buckets {
			t.Fatalf("after %s: the shard has %d buckets, want %d", stage, b, buckets)
		}
	}
	fill()
	for r := 0; rebuilds(m, buckets) < 3; r++ {
		if r == 1000 {
			t.Fatal("fewer than three rebuilds in 1000 overwrite rounds")
		}
		for k := range want {
			v := []byte(fmt.Sprintf("%s round %d", k, r))
			if !m.Put(k, v) {
				t.Fatalf("round %d: overwrite of %s rejected", r, k)
			}
			want[k] = v
		}
	}
	check("overwrite rounds")

	rejected := fill()
	// Overwrite through the core, which skips the write path's rebuild
	// check, until the settled geometry needs a rebuild.
	cands := make([]uint32, m.d)
	for r := 0; !sh.core.NeedsRebuild(); r++ {
		for k := range want {
			_, tag := m.routeDigest(Digest(m, k))
			sh.deriver.Load().CandidateBins(tag, cands)
			v := []byte(fmt.Sprintf("%s core round %d", k, r))
			sh.lock()
			sh.core.Put(cands, nil, k, v, tag)
			sh.unlock()
			want[k] = v
		}
	}
	if m.Put(rejected, []byte(rejected)) {
		t.Fatal("a rejected Put was retried into the rebuild it started")
	}
	if !sh.core.Resizing() && rebuilds(m, buckets) < 4 {
		t.Fatal("the rejected Put did not start a rebuild")
	}
	check("a rejection that started a rebuild")
	if _, ok := m.Get(rejected); ok {
		t.Fatalf("%s was rejected but is stored", rejected)
	}
}
