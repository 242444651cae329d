package mchtable

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestPutGetDeleteRoundTrip(t *testing.T) {
	for _, mode := range []HashMode{IndependentHashes, DoubleHashing} {
		tb := New(Config{Buckets: 1 << 10, SlotsPerBucket: 4, D: 2, Mode: mode, Seed: 1})
		src := rng.NewXoshiro256(2)
		keys := make([]uint64, 2048) // occupancy 0.5
		for i := range keys {
			keys[i] = src.Uint64()
			if !tb.Put(keys[i], uint64(i)) {
				t.Fatalf("%v: put %d rejected", mode, i)
			}
		}
		for i, k := range keys {
			v, ok := tb.Get(k)
			if !ok || v != uint64(i) {
				t.Fatalf("%v: get = %d,%v want %d", mode, v, ok, i)
			}
		}
		if tb.Len() != len(keys) {
			t.Fatalf("%v: Len = %d", mode, tb.Len())
		}
		// Delete half, verify the rest survives.
		for i := 0; i < len(keys); i += 2 {
			if !tb.Delete(keys[i]) {
				t.Fatalf("%v: delete missing", mode)
			}
		}
		for i, k := range keys {
			_, ok := tb.Get(k)
			if want := i%2 == 1; ok != want {
				t.Fatalf("%v: after delete, Get(%d) = %v", mode, i, ok)
			}
		}
		if tb.Len() != len(keys)/2 {
			t.Fatalf("%v: Len after deletes = %d", mode, tb.Len())
		}
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	tb := New(Config{Buckets: 64, SlotsPerBucket: 2, D: 2, Mode: DoubleHashing, Seed: 3})
	tb.Put(7, 100)
	tb.Put(7, 200)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after update", tb.Len())
	}
	if v, _ := tb.Get(7); v != 200 {
		t.Fatalf("value = %d, want 200", v)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tb := New(Config{Buckets: 64, SlotsPerBucket: 2, D: 2, Seed: 4})
	if tb.Delete(99) {
		t.Fatal("deleted a key that was never stored")
	}
}

// TestModelBased drives the table with random operations and checks every
// answer against a reference map.
func TestModelBased(t *testing.T) {
	for _, mode := range []HashMode{IndependentHashes, DoubleHashing} {
		tb := New(Config{Buckets: 256, SlotsPerBucket: 4, D: 3, Mode: mode, Seed: 5, StashSize: 64})
		model := map[uint64]uint64{}
		src := rng.NewXoshiro256(6)
		const keySpace = 700 // ~0.68 occupancy ceiling
		for op := 0; op < 30000; op++ {
			key := uint64(rng.Intn(src, keySpace))
			switch rng.Intn(src, 3) {
			case 0: // put
				val := src.Uint64()
				if tb.Put(key, val) {
					model[key] = val
				} else if _, exists := model[key]; exists {
					t.Fatalf("%v: put rejected for existing key", mode)
				}
			case 1: // get
				v, ok := tb.Get(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					t.Fatalf("%v op %d: Get(%d) = (%d,%v), model (%d,%v)", mode, op, key, v, ok, mv, mok)
				}
			case 2: // delete
				ok := tb.Delete(key)
				_, mok := model[key]
				if ok != mok {
					t.Fatalf("%v op %d: Delete(%d) = %v, model %v", mode, op, key, ok, mok)
				}
				delete(model, key)
			}
			if tb.Len() != len(model) {
				t.Fatalf("%v op %d: Len %d != model %d", mode, op, tb.Len(), len(model))
			}
		}
	}
}

func TestBucketLoadsMatchBalancedAllocation(t *testing.T) {
	// With 1-slot buckets... not meaningful. Use many slots so buckets act
	// as bins: insert as many keys as buckets with d=4 candidates; the
	// bucket-occupancy distribution should match the paper's Table 1(b)
	// (≈ 0.1408 / 0.7184 / 0.1408 / 2e-5 at loads 0/1/2/3).
	const buckets = 1 << 14
	for _, mode := range []HashMode{IndependentHashes, DoubleHashing} {
		tb := New(Config{Buckets: buckets, SlotsPerBucket: 8, D: 4, Mode: mode, Seed: 7})
		src := rng.NewXoshiro256(8)
		for i := 0; i < buckets; i++ {
			if !tb.Put(src.Uint64(), 0) {
				t.Fatalf("%v: put rejected", mode)
			}
		}
		h := tb.BucketLoadHist()
		if math.Abs(h.Fraction(1)-0.7184) > 0.01 {
			t.Errorf("%v: load-1 bucket fraction %.4f, want ≈ 0.7184", mode, h.Fraction(1))
		}
		if h.MaxValue() > 3 {
			t.Errorf("%v: max bucket load %d, want <= 3", mode, h.MaxValue())
		}
	}
}

func TestModesIndistinguishableOccupancy(t *testing.T) {
	// The paper's claim transplanted to the data structure: bucket-load
	// histograms under the two hashing modes are statistically
	// indistinguishable.
	const buckets = 1 << 13
	hists := map[HashMode]*stats.Hist{}
	for _, mode := range []HashMode{IndependentHashes, DoubleHashing} {
		tb := New(Config{Buckets: buckets, SlotsPerBucket: 8, D: 3, Mode: mode, Seed: uint64(mode) + 9})
		src := rng.NewXoshiro256(uint64(mode) + 10)
		for i := 0; i < buckets; i++ {
			tb.Put(src.Uint64(), 0)
		}
		hists[mode] = tb.BucketLoadHist()
	}
	res := stats.ChiSquareHomogeneity(hists[IndependentHashes], hists[DoubleHashing], 5)
	if res.P < 1e-3 {
		t.Errorf("bucket loads distinguishable: p = %g", res.P)
	}
}

func TestStashOverflow(t *testing.T) {
	// A table with 1 bucket-choice (D=1) and tiny capacity must overflow
	// into the stash and eventually reject.
	tb := New(Config{Buckets: 2, SlotsPerBucket: 1, D: 1, Seed: 11, StashSize: 2})
	accepted := 0
	for k := uint64(0); k < 10; k++ {
		if tb.Put(k, k) {
			accepted++
		}
	}
	if accepted >= 10 {
		t.Fatal("tiny table accepted everything")
	}
	if tb.StashLen() != 2 {
		t.Fatalf("stash len = %d, want 2", tb.StashLen())
	}
	// Stored pairs (bucketed or stashed) are retrievable; occupancy sane.
	if tb.Len() != accepted {
		t.Fatalf("Len = %d, accepted %d", tb.Len(), accepted)
	}
	if tb.Occupancy() <= 0 {
		t.Fatal("occupancy not positive")
	}
}

func TestStashDeleteAndUpdate(t *testing.T) {
	tb := New(Config{Buckets: 2, SlotsPerBucket: 1, D: 1, Seed: 12, StashSize: 4})
	var stashed []uint64
	for k := uint64(0); k < 8 && tb.StashLen() < 2; k++ {
		tb.Put(k, k)
		if tb.StashLen() > len(stashed) {
			stashed = append(stashed, k)
		}
	}
	if len(stashed) == 0 {
		t.Skip("no key landed in stash with this seed")
	}
	k := stashed[0]
	tb.Put(k, 777)
	if v, ok := tb.Get(k); !ok || v != 777 {
		t.Fatalf("stash update failed: %d %v", v, ok)
	}
	if !tb.Delete(k) {
		t.Fatal("stash delete failed")
	}
	if _, ok := tb.Get(k); ok {
		t.Fatal("stash key survived delete")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Buckets: 0, SlotsPerBucket: 1, D: 1},
		{Buckets: 8, SlotsPerBucket: 0, D: 1},
		{Buckets: 8, SlotsPerBucket: 1, D: 0},
		{Buckets: 8, SlotsPerBucket: 1, D: 8},
		{Buckets: 8, SlotsPerBucket: 1, D: 2, StashSize: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: no panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestCoreRangeCoversMigration: Range mid-resize must visit entries in
// both geometries exactly once.
func TestCoreRangeCoversMigration(t *testing.T) {
	tb := New(Config{Buckets: 32, SlotsPerBucket: 2, D: 3, Mode: DoubleHashing, Seed: 2, StashSize: 16})
	for i := uint64(1); i <= 50; i++ {
		if !tb.Put(i, i*3) {
			t.Fatalf("fill rejected %d", i)
		}
	}
	tb.core.StartResize(64)
	moved := tb.core.Migrate(20, func(tag uint64) []uint32 {
		// Tags are keys for Table; re-derive at the doubled geometry.
		cands := make([]uint32, 3)
		for i := range cands {
			cands[i] = uint32((tag*31 + uint64(i)*17) % 64)
		}
		return cands
	})
	if moved == 0 || !tb.core.Resizing() {
		t.Fatalf("migration setup: moved %d, resizing %v", moved, tb.core.Resizing())
	}
	seen := make(map[uint64]uint64)
	tb.Range(func(k, v uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range visited %d twice mid-migration", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("Range mid-migration saw %d keys, want 50", len(seen))
	}
	for i := uint64(1); i <= 50; i++ {
		if seen[i] != i*3 {
			t.Fatalf("key %d = %d, want %d", i, seen[i], i*3)
		}
	}
}
