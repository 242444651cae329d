package mchtable

import (
	"fmt"
	"testing"

	"repro/internal/keyed"
	"repro/internal/testutil"
)

func TestTypedMapDifferential(t *testing.T) {
	// The typed single-threaded table under the shared oracle: string
	// keys, tracked values, deletions, constant stash churn (48 keys over
	// 32 slots + 8 stash entries).
	m := NewMap[string, uint64](keyed.ForType[string](), Config{
		Buckets: 16, SlotsPerBucket: 2, D: 2, Seed: 3, StashSize: 8,
	})
	ops := testutil.MapOps(testutil.RandomOps(40000, 48, 0.35, 0.35, 4),
		func(k uint64) string { return fmt.Sprintf("item-%03d", k) },
		func(v uint64) uint64 { return v },
	)
	if err := testutil.Run(m, ops, testutil.Options{TrackValues: true}); err != nil {
		t.Fatal(err)
	}
}

func TestTypedMapStructValues(t *testing.T) {
	// Generic value storage: a struct value survives placement, stash
	// overflow and updates.
	type loc struct {
		Offset uint64
		Len    uint32
	}
	m := NewMap[uint64, loc](keyed.Uint64, Config{Buckets: 64, SlotsPerBucket: 2, D: 3, Seed: 9})
	for k := uint64(1); k <= 100; k++ {
		if !m.Put(k, loc{Offset: k * 4096, Len: uint32(k)}) {
			t.Fatalf("put %d rejected", k)
		}
	}
	for k := uint64(1); k <= 100; k++ {
		v, ok := m.Get(k)
		if !ok || v != (loc{Offset: k * 4096, Len: uint32(k)}) {
			t.Fatalf("Get(%d) = %+v, %v", k, v, ok)
		}
	}
	st := m.Stats()
	if st.Len != 100 || st.Shards != 1 || st.Capacity != 128 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTableStatsSnapshot(t *testing.T) {
	tb := New(Config{Buckets: 32, SlotsPerBucket: 2, D: 2, Mode: DoubleHashing, Seed: 1, StashSize: 4})
	for k := uint64(1); k <= 40; k++ {
		tb.Put(k, k)
	}
	st := tb.Stats()
	if st.Len != tb.Len() || st.Capacity != 64 || st.Stashed != tb.StashLen() {
		t.Fatalf("stats: %+v", st)
	}
	if st.BucketLoads.Total() != 32 {
		t.Fatalf("histogram covers %d buckets", st.BucketLoads.Total())
	}
}

// TestTypedMapCompacts overwrites the same string → string pairs round
// after round on the single-threaded table: Put and Delete rebuild it in
// one pass whenever its arena holds more dead bytes than live ones, so
// the arena stays under twice the live bytes plus one chunk, while every
// pair keeps its latest value.
func TestTypedMapCompacts(t *testing.T) {
	const keys, rounds = 200, 100
	m := NewMap[string, string](keyed.ForType[string](), Config{Buckets: 128, SlotsPerBucket: 4, D: 3, Seed: 5})
	live := int64(0)
	for r := 0; r < rounds; r++ {
		live = 0
		for k := 0; k < keys; k++ {
			key, val := fmt.Sprintf("k%03d", k), fmt.Sprintf("round %03d of key %03d", r, k)
			m.Put(key, val)
			live += int64(recordLen(keyInArena|valInArena, len(key), len(val)))
		}
		if got := m.Stats().ArenaBytes; got > 2*live+maxChunk {
			t.Fatalf("round %d: arena holds %d bytes for %d live", r, got, live)
		}
	}
	if m.Stats().Resizes == 0 {
		t.Fatal("no rebuild ran")
	}
	for k := 0; k < keys; k++ {
		if v, ok := m.Get(fmt.Sprintf("k%03d", k)); !ok || v != fmt.Sprintf("round %03d of key %03d", rounds-1, k) {
			t.Fatalf("key %d = (%q, %v)", k, v, ok)
		}
	}
}
