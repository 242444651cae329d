package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/testutil"
)

// TestContainerOracleAllFamilies drives the public Map — the one
// container family — built through the functional options, against the
// shared differential oracle with string keys, tracked values and online
// growth.
func TestContainerOracleAllFamilies(t *testing.T) {
	t.Run("Map", func(t *testing.T) {
		m := repro.NewMap[string, uint64](
			repro.WithShards(2), repro.WithBuckets(8), repro.WithSlots(2),
			repro.WithD(3), repro.WithStash(4),
			repro.WithMaxLoadFactor(0.75), repro.WithMigrateBatch(2), repro.WithSeed(31),
		)
		ops := testutil.MapOps(testutil.RandomOps(12000, 192, 0.5, 0.2, 39),
			func(k uint64) string { return fmt.Sprintf("key-%03x", k) },
			func(v uint64) uint64 { return v },
		)
		fin := func() {
			for m.MigrateStep(64) > 0 {
			}
		}
		if err := testutil.Run(m, ops, testutil.Options{TrackValues: true, Finalize: fin}); err != nil {
			t.Fatal(err)
		}
		var st repro.ContainerStats = m.Stats()
		if st.Len != m.Len() {
			t.Fatalf("Stats.Len %d != Len %d", st.Len, m.Len())
		}
		if st.Capacity <= 0 || st.Occupancy < 0 || st.Occupancy > 1 {
			t.Fatalf("implausible stats: %+v", st)
		}
	})
}

// TestTypedQuickstart is the README's typed-API quickstart, kept
// compiling: a struct-keyed concurrent map with default growth.
func TestTypedQuickstart(t *testing.T) {
	type FiveTuple struct {
		SrcIP, DstIP     uint32
		SrcPort, DstPort uint16
		Proto            uint16
		Zone             uint16
	}
	flows := repro.NewMap[FiveTuple, uint64](repro.WithSeed(42))
	ft := FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 443, DstPort: 51313, Proto: 6}
	if !flows.Put(ft, 1) {
		t.Fatal("put rejected")
	}
	if n, ok := flows.Get(ft); !ok || n != 1 {
		t.Fatalf("Get = %d, %v", n, ok)
	}
	if !flows.Delete(ft) {
		t.Fatal("delete missed")
	}

	// String-keyed store with an explicit hasher and fixed capacity.
	idx := repro.NewMapOf[string, uint64](repro.StringHasher[string](),
		repro.WithMaxLoadFactor(0), repro.WithBuckets(64), repro.WithSeed(7))
	if !idx.Put("sha256:abcd", 99) {
		t.Fatal("string put rejected")
	}
	if v, ok := idx.Get("sha256:abcd"); !ok || v != 99 {
		t.Fatalf("string Get = %d, %v", v, ok)
	}
}

// TestMapGrowsByDefault pins NewMap's default growth policy: a map
// started far too small absorbs a large workload without a rejection.
func TestMapGrowsByDefault(t *testing.T) {
	m := repro.NewMap[uint64, uint64](
		repro.WithShards(2), repro.WithBuckets(8), repro.WithSlots(2), repro.WithSeed(3))
	for k := uint64(1); k <= 10000; k++ {
		if !m.Put(k, k) {
			t.Fatalf("Put(%d) rejected with growth enabled by default", k)
		}
	}
	for m.MigrateStep(256) > 0 {
	}
	st := m.Stats()
	if st.Resizes == 0 {
		t.Fatal("default-config map never resized")
	}
	if st.Len != 10000 {
		t.Fatalf("Len = %d", st.Len)
	}
}
