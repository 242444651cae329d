package cuckoo

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/testutil"
)

func newTable(t *testing.T, capacity, d int, mode Mode, seed uint64) *Table {
	t.Helper()
	return New(capacity, d, mode, seed, rng.NewXoshiro256(seed^0xABCD))
}

func TestInsertContainsRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Independent, DoubleHashed} {
		tb := newTable(t, 1<<12, 3, mode, 5)
		src := rng.NewXoshiro256(9)
		keys := make([]uint64, 1<<11) // α = 0.5, far below threshold
		for i := range keys {
			keys[i] = src.Uint64()
			if _, ok := tb.Insert(keys[i]); !ok {
				t.Fatalf("%v: insert %d failed at α=0.5", mode, i)
			}
		}
		for _, k := range keys {
			if !tb.Contains(k) {
				t.Fatalf("%v: stored key missing", mode)
			}
		}
		if tb.Contains(0x1234567890) {
			t.Fatalf("%v: phantom key", mode)
		}
		if tb.Len() != len(keys) {
			t.Fatalf("%v: Len = %d", mode, tb.Len())
		}
	}
}

func TestInsertIdempotent(t *testing.T) {
	tb := newTable(t, 1024, 3, DoubleHashed, 1)
	tb.Insert(42)
	if k, ok := tb.Insert(42); !ok || k != 0 {
		t.Fatalf("reinsert: kicks=%d ok=%v", k, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestHighLoadSucceedsBelowThreshold(t *testing.T) {
	// d=3 random-walk cuckoo supports loads up to ≈ 0.91; α = 0.85 must
	// succeed for both hashing modes.
	capacity := 1 << 13
	for _, mode := range []Mode{Independent, DoubleHashed} {
		tb := newTable(t, capacity, 3, mode, 7)
		r := tb.Fill(int(0.85*float64(capacity)), rng.NewXoshiro256(13))
		if r.Failed != 0 {
			t.Errorf("%v: failed after %d inserts at α=0.85", mode, r.Inserted)
		}
	}
}

func TestOverloadFails(t *testing.T) {
	// Far beyond the d=2 threshold (0.5): inserting to α = 0.9 with d=2
	// must hit a failure.
	tb := newTable(t, 1<<10, 2, DoubleHashed, 3)
	r := tb.Fill(921, rng.NewXoshiro256(17))
	if r.Failed == 0 {
		t.Error("d=2 fill to α=0.9 unexpectedly succeeded")
	}
}

func TestModesComparableEffort(t *testing.T) {
	// The reproduction claim: insertion effort under double hashing is
	// close to independent hashing at moderate load.
	capacity := 1 << 13
	kicks := map[Mode]float64{}
	for _, mode := range []Mode{Independent, DoubleHashed} {
		tb := newTable(t, capacity, 3, mode, 11)
		r := tb.Fill(int(0.8*float64(capacity)), rng.NewXoshiro256(23))
		if r.Failed != 0 {
			t.Fatalf("%v: fill failed", mode)
		}
		kicks[mode] = r.MeanKicks()
	}
	a, b := kicks[Independent], kicks[DoubleHashed]
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 3*lo+0.05 {
		t.Errorf("mean kicks differ wildly: independent %.3f vs double-hashed %.3f", a, b)
	}
}

func TestCompositeCapacity(t *testing.T) {
	tb := newTable(t, 1000, 3, DoubleHashed, 19)
	r := tb.Fill(700, rng.NewXoshiro256(29))
	if r.Failed != 0 {
		t.Fatalf("composite capacity fill failed after %d", r.Inserted)
	}
}

func TestSetMaxKicks(t *testing.T) {
	tb := newTable(t, 64, 3, Independent, 2)
	tb.SetMaxKicks(1)
	// With a tiny budget, dense fills fail quickly but the call works.
	r := tb.Fill(60, rng.NewXoshiro256(31))
	if r.Inserted+r.Failed != r.Attempted {
		t.Fatalf("accounting broken: %+v", r)
	}
}

func TestValidationPanics(t *testing.T) {
	src := rng.NewSplitMix64(0)
	tb := newTable(t, 64, 3, Independent, 0)
	for i, fn := range []func(){
		func() { New(1, 2, Independent, 0, src) },
		func() { New(64, 1, Independent, 0, src) },
		func() { New(64, 64, Independent, 0, src) },
		func() { New(64, 2, Independent, 0, nil) },
		func() { tb.SetMaxKicks(0) },
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

func TestMeanKicksEmptyFill(t *testing.T) {
	var r FillResult
	if r.MeanKicks() != 0 {
		t.Error("empty fill mean kicks should be 0")
	}
}

func TestDifferentialOpSequences(t *testing.T) {
	// The shared differential harness is the oracle for op-sequence
	// behaviour: membership, stored values and deletions match a shadow
	// map even when fills push past the load threshold and kick budgets
	// run out (where the PR 2 membership-loss regression lived), under
	// both hashing modes. The Table's Put/Get/Delete map API satisfies
	// the harness's Container[uint64, uint64] directly.
	for _, mode := range []Mode{Independent, DoubleHashed} {
		for _, d := range []int{2, 3} {
			tb := newTable(t, 256, d, mode, uint64(d)*13)
			tb.SetMaxKicks(20) // small budget so exhaustion paths run
			ops := testutil.RandomOps(6000, 512, 0.5, 0.2, uint64(d)+uint64(mode))
			if err := testutil.Run(tb, ops, testutil.Options{TrackValues: true}); err != nil {
				t.Errorf("%v d=%d: %v", mode, d, err)
			}
		}
	}
}

func TestValuesFollowEvictions(t *testing.T) {
	// Every stored value must move with its key through arbitrary
	// eviction walks: fill near the d=3 threshold with value = f(key),
	// then verify every pair.
	capacity := 1 << 12
	tb := newTable(t, capacity, 3, DoubleHashed, 41)
	src := rng.NewXoshiro256(42)
	keys := make([]uint64, int(0.85*float64(capacity)))
	for i := range keys {
		keys[i] = src.Uint64()
		if !tb.Put(keys[i], keys[i]^0xABCD) {
			t.Fatalf("put %d failed at α=0.85", i)
		}
	}
	for _, k := range keys {
		if v, ok := tb.Get(k); !ok || v != k^0xABCD {
			t.Fatalf("value detached from key: Get(%#x) = (%#x, %v)", k, v, ok)
		}
	}
	// Update in place does not duplicate.
	if !tb.Put(keys[0], 7) {
		t.Fatal("update rejected")
	}
	if v, _ := tb.Get(keys[0]); v != 7 {
		t.Fatal("update lost")
	}
	if tb.Len() != len(keys) {
		t.Fatalf("Len = %d after update", tb.Len())
	}
}

func TestDeleteFreesSlots(t *testing.T) {
	tb := newTable(t, 128, 3, DoubleHashed, 43)
	src := rng.NewXoshiro256(44)
	var keys []uint64
	for len(keys) < 100 {
		k := src.Uint64()
		if tb.Put(k, k) {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if i%2 == 0 && !tb.Delete(k) {
			t.Fatalf("delete of stored key %d missed", i)
		}
	}
	if tb.Delete(keys[0]) {
		t.Fatal("double delete succeeded")
	}
	if tb.Len() != 50 {
		t.Fatalf("Len = %d after deleting half", tb.Len())
	}
	for i, k := range keys {
		_, ok := tb.Get(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
	// Freed slots admit new keys again.
	n := tb.Len()
	for tb.Len() < n+25 {
		if k := src.Uint64(); tb.Put(k, k) {
			continue
		}
	}
}

func TestNoMembershipLossPastThreshold(t *testing.T) {
	// Regression: the pre-fix Insert dropped the final displaced resident
	// on kick-budget exhaustion, so a key whose Insert had returned true
	// could later be absent. Fill far past the d=2 load threshold (0.5),
	// keep every key whose Insert reported true, and require all of them
	// to still be present after the first failure.
	for _, mode := range []Mode{Independent, DoubleHashed} {
		tb := newTable(t, 1<<10, 2, mode, 3)
		tb.SetMaxKicks(50) // small budget so exhaustion happens well past α=0.5
		src := rng.NewXoshiro256(17)
		var stored []uint64
		var rejected uint64
		for i := 0; i < 1<<10; i++ {
			k := src.Uint64()
			if _, ok := tb.Insert(k); ok {
				stored = append(stored, k)
				continue
			}
			rejected = k
			break
		}
		if rejected == 0 {
			t.Fatalf("%v: no insertion failed past the threshold", mode)
		}
		for _, k := range stored {
			if !tb.Contains(k) {
				t.Errorf("%v: key stored with ok=true is no longer present", mode)
			}
		}
		// A failed Insert must leave the table unchanged: the rejected key
		// absent and the size equal to the number of successes.
		if tb.Contains(rejected) {
			t.Errorf("%v: rejected key is resident", mode)
		}
		if tb.Len() != len(stored) {
			t.Errorf("%v: Len = %d after %d successful inserts", mode, tb.Len(), len(stored))
		}
	}
}

func TestFailedInsertUnwindIsExact(t *testing.T) {
	// After a failed insertion, every slot must hold exactly what it held
	// before the call — keys AND values, not merely the same membership
	// set.
	tb := newTable(t, 256, 2, DoubleHashed, 7)
	tb.SetMaxKicks(20)
	src := rng.NewXoshiro256(29)
	for i := 0; i < 256; i++ {
		keys := append([]uint64(nil), tb.keys...)
		vals := append([]uint64(nil), tb.vals...)
		occ := append([]uint8(nil), tb.occupied...)
		k := src.Uint64()
		if tb.Put(k, k^0xF00D) {
			continue
		}
		for s := range keys {
			if occ[s] != tb.occupied[s] || (occ[s] != 0 && (keys[s] != tb.keys[s] || vals[s] != tb.vals[s])) {
				t.Fatalf("slot %d changed across failed insert", s)
			}
		}
		return
	}
	t.Skip("no insertion failed; raise the load")
}

// TestTableRange: the raw uint64 table's Range visits exactly the
// stored pairs.
func TestTableRange(t *testing.T) {
	tb := New(256, 3, DoubleHashed, 3, rng.NewXoshiro256(0xF00))
	want := make(map[uint64]uint64)
	for i := uint64(1); i <= 100; i++ {
		if !tb.Put(i, i*5) {
			t.Fatalf("Put(%d) failed", i)
		}
		want[i] = i * 5
	}
	tb.Delete(7)
	delete(want, 7)
	got := make(map[uint64]uint64)
	tb.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range visited %d twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	// Early stop is honored.
	n := 0
	tb.Range(func(k, v uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("Range continued after fn returned false: %d visits", n)
	}
}
