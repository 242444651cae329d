package openaddr

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/testutil"
)

func TestInsertLookupRoundTrip(t *testing.T) {
	for _, probe := range []Probe{DoubleHash, Uniform, Linear} {
		tb := New(1<<12, probe, 42)
		src := rng.NewXoshiro256(1)
		keys := make([]uint64, 1<<11) // fill to α = 0.5
		for i := range keys {
			keys[i] = src.Uint64()
			if _, ok := tb.Insert(keys[i]); !ok {
				t.Fatalf("%v: insert %d failed", probe, i)
			}
		}
		for _, k := range keys {
			if found, _ := tb.Lookup(k); !found {
				t.Fatalf("%v: stored key not found", probe)
			}
		}
		if found, _ := tb.Lookup(0xDEADBEEF); found {
			t.Fatalf("%v: phantom key found", probe)
		}
		if tb.Len() != len(keys) {
			t.Fatalf("%v: Len = %d, want %d", probe, tb.Len(), len(keys))
		}
	}
}

func TestInsertIdempotent(t *testing.T) {
	tb := New(97, DoubleHash, 3)
	tb.Insert(12345)
	tb.Insert(12345)
	if tb.Len() != 1 {
		t.Fatalf("duplicate insert grew table: %d", tb.Len())
	}
}

func TestUnsuccessfulSearchCostMatchesTheory(t *testing.T) {
	// Classical result: at load α, unsuccessful search under double
	// hashing costs ≈ 1/(1−α), matching idealized uniform probing.
	capacity := 16411 // prime near 2^14
	for _, alpha := range []float64{0.3, 0.5, 0.7, 0.85} {
		want := 1 / (1 - alpha)
		for _, probe := range []Probe{DoubleHash, Uniform} {
			tb := New(capacity, probe, 7)
			tb.FillTo(alpha, rng.NewXoshiro256(11))
			got := tb.UnsuccessfulSearchCost(20000, rng.NewXoshiro256(13))
			if math.Abs(got-want)/want > 0.06 {
				t.Errorf("%v α=%.2f: cost %.3f, want ≈ %.3f", probe, alpha, got, want)
			}
		}
	}
}

func TestLinearProbingClusters(t *testing.T) {
	// Linear probing's unsuccessful search cost is (1+(1/(1−α))²)/2,
	// much worse than 1/(1−α) at high load.
	const alpha = 0.85
	capacity := 16384
	lin := New(capacity, Linear, 7)
	lin.FillTo(alpha, rng.NewXoshiro256(17))
	dh := New(capacity, DoubleHash, 7)
	dh.FillTo(alpha, rng.NewXoshiro256(17))
	linCost := lin.UnsuccessfulSearchCost(20000, rng.NewXoshiro256(19))
	dhCost := dh.UnsuccessfulSearchCost(20000, rng.NewXoshiro256(19))
	if linCost < 2*dhCost {
		t.Errorf("linear probing cost %.2f not ≫ double hashing %.2f at α=%.2f", linCost, dhCost, alpha)
	}
	wantLin := (1 + 1/((1-alpha)*(1-alpha))) / 2
	if math.Abs(linCost-wantLin)/wantLin > 0.25 {
		t.Errorf("linear cost %.2f, theory ≈ %.2f", linCost, wantLin)
	}
}

func TestFullTableBehaviour(t *testing.T) {
	tb := New(7, DoubleHash, 1)
	src := rng.NewXoshiro256(5)
	inserted := make([]uint64, 0, 7)
	for len(inserted) < 7 {
		k := src.Uint64()
		if _, ok := tb.Insert(k); ok {
			inserted = append(inserted, k)
		}
	}
	if tb.LoadFactor() != 1 {
		t.Fatalf("load factor %v", tb.LoadFactor())
	}
	// A new key cannot be inserted.
	if _, ok := tb.Insert(0x123456789); ok {
		t.Error("insert into full table succeeded")
	}
	// Existing keys still found; absent keys terminate.
	for _, k := range inserted {
		if found, _ := tb.Lookup(k); !found {
			t.Error("stored key lost at full load")
		}
	}
	if found, p := tb.Lookup(0x987654321); found || p > 7 {
		t.Errorf("full-table miss: found=%v probes=%d", found, p)
	}
}

func TestCompositeCapacityDoubleHash(t *testing.T) {
	// Capacity 1000 (neither prime nor power of two) exercises the
	// coprime-stride fallback.
	tb := New(1000, DoubleHash, 9)
	src := rng.NewXoshiro256(21)
	for i := 0; i < 900; i++ {
		if _, ok := tb.Insert(src.Uint64()); !ok {
			t.Fatalf("insert %d failed at composite capacity", i)
		}
	}
	if tb.Len() != 900 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestDifferentialOpSequences(t *testing.T) {
	// The shared differential harness is the oracle for op-sequence
	// behaviour: membership, stored values and tombstone deletions must
	// match a shadow map through fills all the way to 100% load (where
	// the PR 2 Uniform full-table regression lived) and through
	// delete/reinsert churn that accumulates and reuses tombstones, under
	// every probe discipline and capacity class. The Table's
	// Put/Get/Delete map API satisfies the harness's
	// Container[uint64, uint64] directly.
	for _, capacity := range []int{13, 16, 60, 97} {
		for _, probe := range []Probe{DoubleHash, Uniform, Linear} {
			tb := New(capacity, probe, uint64(capacity)*7+uint64(probe))
			// Key space twice the capacity: the sequence saturates the
			// table and keeps probing with rejected and absent keys.
			ops := testutil.RandomOps(6000, 2*uint64(capacity), 0.5, 0.2, uint64(capacity)+uint64(probe))
			if err := testutil.Run(tb, ops, testutil.Options{TrackValues: true}); err != nil {
				t.Errorf("%v cap=%d: %v", probe, capacity, err)
			}
		}
	}
}

func TestTombstonesKeepProbeChainsIntact(t *testing.T) {
	// The tombstone acceptance criterion: deleting a key must never make
	// another key unreachable, even when the deleted slot sat in the
	// middle of the surviving key's probe chain. Fill high, delete every
	// third key, and require exact membership for the rest — for every
	// probe discipline, including a prime, power-of-two and composite
	// capacity.
	for _, capacity := range []int{97, 128, 60} {
		for _, probe := range []Probe{DoubleHash, Uniform, Linear} {
			tb := New(capacity, probe, uint64(capacity)+uint64(probe)*31)
			src := rng.NewXoshiro256(uint64(capacity) * 3)
			inserted := make([]uint64, 0, capacity)
			for len(inserted) < capacity*9/10 {
				k := src.Uint64()
				if tb.Put(k, k>>7) {
					inserted = append(inserted, k)
				}
			}
			deleted := map[uint64]bool{}
			for i, k := range inserted {
				if i%3 == 0 {
					if !tb.Delete(k) {
						t.Fatalf("%v cap=%d: delete of stored key missed", probe, capacity)
					}
					deleted[k] = true
				}
			}
			if tb.Tombstones() == 0 {
				t.Fatalf("%v cap=%d: no tombstones after deletes", probe, capacity)
			}
			for _, k := range inserted {
				v, ok := tb.Get(k)
				if deleted[k] {
					if ok {
						t.Errorf("%v cap=%d: deleted key still present", probe, capacity)
					}
				} else if !ok || v != k>>7 {
					t.Errorf("%v cap=%d: surviving key lost or corrupted past a tombstone", probe, capacity)
				}
			}
		}
	}
}

func TestTombstoneReuseAndAccounting(t *testing.T) {
	tb := New(31, DoubleHash, 5)
	src := rng.NewXoshiro256(6)
	var keys []uint64
	for len(keys) < 31 { // fill to 100%
		k := src.Uint64()
		if tb.Put(k, k) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:10] {
		if !tb.Delete(k) {
			t.Fatal("delete missed")
		}
	}
	if tb.Len() != 21 || tb.Tombstones() != 10 {
		t.Fatalf("Len=%d Tombstones=%d after 10 deletes", tb.Len(), tb.Tombstones())
	}
	// Reinsertions must land in tombstoned slots (there are no empties).
	for i := 0; i < 10; i++ {
		k := src.Uint64()
		if !tb.Put(k, k) {
			t.Fatalf("reinsert %d rejected with %d tombstones free", i, tb.Tombstones())
		}
	}
	if tb.Len() != 31 || tb.Tombstones() != 0 {
		t.Fatalf("Len=%d Tombstones=%d after refill", tb.Len(), tb.Tombstones())
	}
	// Full of live keys again: a fresh key must reject, a resident must
	// still be found.
	if tb.Put(0xDECAF, 1) {
		t.Fatal("insert into a live-full table succeeded")
	}
	if _, ok := tb.Get(keys[30]); !ok {
		t.Fatal("resident lost after tombstone churn")
	}
}

func TestValidationPanics(t *testing.T) {
	tb := New(97, DoubleHash, 0)
	for i, fn := range []func(){
		func() { New(1, DoubleHash, 0) },
		func() { tb.FillTo(1.0, rng.NewSplitMix64(0)) },
		func() { tb.FillTo(-0.1, rng.NewSplitMix64(0)) },
		func() { tb.UnsuccessfulSearchCost(0, rng.NewSplitMix64(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFullTableMembershipAllProbes(t *testing.T) {
	// Regression: with Uniform probing the probe sequence is drawn with
	// replacement, so the old capacity-bounded scan could miss a present
	// key's slot on a full table and report it absent. Fill tables of
	// prime, power-of-two and composite capacity to 100% under every probe
	// discipline and require exact membership for all stored keys and a
	// terminating miss for absent ones.
	for _, capacity := range []int{13, 16, 60} {
		for _, probe := range []Probe{DoubleHash, Uniform, Linear} {
			tb := New(capacity, probe, uint64(capacity)*3+uint64(probe))
			src := rng.NewXoshiro256(uint64(capacity) + 101)
			inserted := make([]uint64, 0, capacity)
			for len(inserted) < capacity {
				k := src.Uint64()
				if _, ok := tb.Insert(k); ok {
					inserted = append(inserted, k)
				}
			}
			if tb.LoadFactor() != 1 {
				t.Fatalf("%v cap=%d: load factor %v", probe, capacity, tb.LoadFactor())
			}
			for _, k := range inserted {
				found, probes := tb.Lookup(k)
				if !found {
					t.Errorf("%v cap=%d: stored key reported absent at full load", probe, capacity)
				}
				if probes > capacity {
					t.Errorf("%v cap=%d: successful lookup used %d probes", probe, capacity, probes)
				}
			}
			for i := 0; i < 50; i++ {
				found, probes := tb.Lookup(src.Uint64())
				if found {
					t.Errorf("%v cap=%d: phantom key found", probe, capacity)
				}
				if probes > capacity {
					t.Errorf("%v cap=%d: full-table miss used %d probes", probe, capacity, probes)
				}
			}
			// Inserting into the full table must still recognize residents.
			if _, ok := tb.Insert(inserted[0]); !ok {
				t.Errorf("%v cap=%d: insert of resident key on full table reported false", probe, capacity)
			}
		}
	}
}

// TestTableRangeSkipsTombstones: the raw table's Range visits live keys
// only.
func TestTableRangeSkipsTombstones(t *testing.T) {
	tb := New(128, DoubleHash, 5)
	for i := uint64(1); i <= 60; i++ {
		tb.Put(i, i*2)
	}
	for i := uint64(1); i <= 60; i += 2 {
		tb.Delete(i)
	}
	got := make(map[uint64]uint64)
	tb.Range(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != 30 {
		t.Fatalf("Range saw %d pairs, want 30", len(got))
	}
	for k, v := range got {
		if k%2 != 0 || v != k*2 {
			t.Fatalf("Range visited (%d, %d)", k, v)
		}
	}
}
