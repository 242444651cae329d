package cmap

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/keyed"
	"repro/internal/mchtable"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// newU64 returns an empty uint64 → uint64 map hashed with the canonical
// little-endian uint64 hasher, the shape most of these tests drive.
func newU64(cfg Config) *Map[uint64, uint64] {
	return NewKeyed[uint64, uint64](keyed.Uint64, cfg)
}

// loadU64 is LoadKeyed for newU64's shape.
func loadU64(r io.Reader, cfg Config) (*Map[uint64, uint64], error) {
	return LoadKeyed[uint64, uint64](r, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, cfg)
}

func TestDifferentialOpSequences(t *testing.T) {
	// The shared differential harness is the oracle for op-sequence
	// behaviour, in both regimes: fixed capacity (overflow must reject,
	// the map otherwise unchanged) and online resize (growth and
	// incremental migration must never lose, duplicate or corrupt a key).
	for _, tc := range []struct {
		name string
		cfg  Config
		ops  int
		keys uint64
	}{
		{
			name: "fixed/tiny-rejecting",
			cfg:  Config{Shards: 1, BucketsPerShard: 8, SlotsPerBucket: 1, D: 2, Seed: 3, StashPerShard: 2},
			ops:  20000, keys: 64,
		},
		{
			name: "fixed/stash-churn",
			cfg:  Config{Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 2, D: 3, Seed: 5, StashPerShard: 8},
			ops:  30000, keys: 96,
		},
		{
			name: "resize/batch-1",
			cfg: Config{Shards: 2, BucketsPerShard: 8, SlotsPerBucket: 2, D: 3, Seed: 7,
				StashPerShard: 4, MaxLoadFactor: 0.75, MigrateBatch: 1},
			ops: 30000, keys: 2048,
		},
		{
			name: "resize/batch-default",
			cfg: Config{Shards: 4, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, Seed: 9,
				StashPerShard: 8, MaxLoadFactor: 0.85},
			ops: 30000, keys: 4096,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newU64(tc.cfg)
			ops := testutil.RandomOps(tc.ops, tc.keys, 0.55, 0.15, tc.cfg.Seed)
			opt := testutil.Options{TrackValues: true, Finalize: func() {
				for m.MigrateStep(64) > 0 {
				}
			}}
			if err := testutil.Run(m, ops, opt); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if tc.cfg.MaxLoadFactor > 0 {
				if st.Resizes == 0 {
					t.Fatal("growth config finished the sequence without a single resize")
				}
				if st.Migrating != 0 {
					t.Fatalf("%d entries still pending after Finalize drained migrations", st.Migrating)
				}
			} else if st.Resizes != 0 {
				t.Fatalf("fixed-capacity config resized %d times", st.Resizes)
			}
		})
	}
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	m := newU64(Config{Shards: 8, BucketsPerShard: 1 << 8, SlotsPerBucket: 4, D: 3, Seed: 1})
	src := rng.NewXoshiro256(2)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = src.Uint64()
		if !m.Put(keys[i], uint64(i)) {
			t.Fatalf("put %d rejected at low occupancy", i)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := m.Get(k)
		if !ok || v != uint64(i) {
			t.Fatalf("get key %d: v=%d ok=%v", i, v, ok)
		}
	}
	if _, ok := m.Get(0xDEAD_BEEF_F00D); ok {
		t.Fatal("phantom key found")
	}
	// Update in place.
	if !m.Put(keys[7], 999) {
		t.Fatal("update rejected")
	}
	if v, _ := m.Get(keys[7]); v != 999 {
		t.Fatalf("update lost: v=%d", v)
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len changed on update: %d", m.Len())
	}
	// Delete half.
	for i, k := range keys {
		if i%2 == 0 {
			if !m.Delete(k) {
				t.Fatalf("delete key %d missed", i)
			}
		}
	}
	if m.Delete(keys[0]) {
		t.Fatal("double delete succeeded")
	}
	if m.Len() != len(keys)/2 {
		t.Fatalf("Len after deletes = %d", m.Len())
	}
	for i, k := range keys {
		_, ok := m.Get(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
}

func TestFullMapRejectsAndStaysConsistent(t *testing.T) {
	m := newU64(Config{Shards: 1, BucketsPerShard: 8, SlotsPerBucket: 1, D: 2, Seed: 3, StashPerShard: 2})
	src := rng.NewXoshiro256(4)
	var stored []uint64
	var rejected uint64
	for i := 0; i < 1000; i++ {
		k := src.Uint64()
		if m.Put(k, k) {
			stored = append(stored, k)
			continue
		}
		rejected = k
		break
	}
	if rejected == 0 {
		t.Fatal("no Put was rejected on a 10-slot map")
	}
	if _, ok := m.Get(rejected); ok {
		t.Fatal("rejected key is present")
	}
	if m.Len() != len(stored) {
		t.Fatalf("Len = %d after %d stores", m.Len(), len(stored))
	}
	for _, k := range stored {
		if _, ok := m.Get(k); !ok {
			t.Fatal("stored key lost after a rejected Put")
		}
	}
}

func TestStashOverflowAndDrain(t *testing.T) {
	// One shard with 1-slot buckets overflows quickly; deletes must drain
	// the stash back into freed buckets.
	m := newU64(Config{Shards: 1, BucketsPerShard: 64, SlotsPerBucket: 1, D: 2, Seed: 5, StashPerShard: 16})
	src := rng.NewXoshiro256(6)
	var stored []uint64
	for len(stored) < 60 {
		k := src.Uint64()
		if m.Put(k, k^1) {
			stored = append(stored, k)
		}
	}
	st := m.Stats()
	if st.Stashed == 0 {
		t.Fatal("60 keys into 64 one-slot buckets did not overflow the stash")
	}
	// Delete bucket residents until the stash drains.
	before := st.Stashed
	for i := 0; i < len(stored) && m.Stats().Stashed > 0; i++ {
		if !m.Delete(stored[i]) {
			t.Fatalf("delete of stored key %d missed", i)
		}
		stored[i] = 0
		// Every remaining key must stay reachable across drains.
		for _, k := range stored[i+1:] {
			if _, ok := m.Get(k); !ok {
				t.Fatal("key lost during stash drain")
			}
		}
	}
	if after := m.Stats().Stashed; after >= before {
		t.Fatalf("stash did not drain: %d -> %d", before, after)
	}
}

func TestConcurrentPutGetDelete(t *testing.T) {
	// The tentpole's race criterion: many goroutines hammer Put/Get/Delete
	// with overlapping shards, stash overflow and contention. Run under
	// `go test -race`.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	m := newU64(Config{Shards: 4, BucketsPerShard: 1 << 7, SlotsPerBucket: 2, D: 3, Seed: 7, StashPerShard: 8})
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(w)*77 + 1)
			// Disjoint key space per worker: high byte tags the owner.
			mk := func(i int) uint64 { return uint64(w)<<56 | uint64(i)<<1 | 1 }
			live := map[uint64]uint64{}
			for i := 0; i < perWorker; i++ {
				k := mk(int(src.Uint64() % 300))
				switch src.Uint64() % 4 {
				case 0, 1: // put
					if m.Put(k, uint64(i)) {
						live[k] = uint64(i)
					} else {
						delete(live, k)
					}
				case 2: // get own key: must match the local shadow map
					v, ok := m.Get(k)
					want, wok := live[k]
					if ok != wok || (ok && v != want) {
						t.Errorf("worker %d: get=%d,%v want=%d,%v", w, v, ok, want, wok)
						return
					}
				case 3: // delete
					if m.Delete(k) != (func() bool { _, ok := live[k]; return ok }()) {
						t.Errorf("worker %d: delete disagreed with shadow", w)
						return
					}
					delete(live, k)
				}
				// Cross-shard read pressure on other workers' keys (result
				// unasserted — only the race detector and internal
				// consistency matter).
				m.Get(uint64((w+1)%workers)<<56 | uint64(i))
				if i%512 == 0 {
					m.Stats() // snapshot under concurrent writes
				}
			}
			// Final membership must match the shadow map exactly.
			for k, want := range live {
				if v, ok := m.Get(k); !ok || v != want {
					t.Errorf("worker %d: final key missing or stale", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentHotKeyContention(t *testing.T) {
	// All workers fight over the same 32 keys: maximal shard contention,
	// constant update-in-place and delete/reinsert races.
	m := newU64(Config{Shards: 2, BucketsPerShard: 32, SlotsPerBucket: 2, D: 2, Seed: 9, StashPerShard: 4})
	workers := 2 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(w) + 100)
			for i := 0; i < 3000; i++ {
				k := 1 + src.Uint64()%32
				switch src.Uint64() % 3 {
				case 0:
					m.Put(k, uint64(w))
				case 1:
					if v, ok := m.Get(k); ok && v >= uint64(workers) {
						t.Errorf("impossible value %d", v)
						return
					}
				case 2:
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Len(); n > 32 {
		t.Fatalf("Len = %d with a 32-key working set", n)
	}
}

func TestStatsSnapshot(t *testing.T) {
	cfg := Config{Shards: 4, BucketsPerShard: 128, SlotsPerBucket: 2, D: 3, Seed: 11, StashPerShard: 8}
	m := newU64(cfg)
	src := rng.NewXoshiro256(12)
	n := 0
	for n < 600 {
		if m.Put(src.Uint64(), 0) {
			n++
		}
	}
	st := m.Stats()
	if st.Shards != 4 || st.Len != n || st.Capacity != 4*128*2 {
		t.Fatalf("snapshot shape: %+v", st)
	}
	if st.Occupancy != float64(n)/float64(st.Capacity) {
		t.Fatalf("occupancy %v", st.Occupancy)
	}
	if st.MinShardLen > st.MaxShardLen {
		t.Fatalf("min %d > max %d", st.MinShardLen, st.MaxShardLen)
	}
	if got := st.BucketLoads.Total(); got != 4*128 {
		t.Fatalf("histogram covers %d buckets, want %d", got, 4*128)
	}
	// Bucket-resident pairs = sum(load · count) = Len − Stashed.
	sum := 0
	for v := 0; v <= st.BucketLoads.MaxValue(); v++ {
		sum += v * int(st.BucketLoads.Count(v))
	}
	if sum != st.Len-st.Stashed {
		t.Fatalf("bucket loads sum to %d, want %d", sum, st.Len-st.Stashed)
	}
}

func TestShardLoadHistogramMatchesSingleTable(t *testing.T) {
	// The balanced-allocation acceptance criterion: per the paper (and the
	// Mitzenmacher–Thaler follow-up, which extends the equivalence to
	// these table sizes), each shard is an independent multiple-choice
	// table, so the aggregated bucket-load histogram of a 16-shard map
	// must be statistically indistinguishable from a single-threaded
	// double-hashing mchtable of the same total shape and occupancy.
	const (
		shards  = 16
		buckets = 1 << 9
		slots   = 4
		d       = 3
	)
	capacity := shards * buckets * slots
	fill := int(0.75 * float64(capacity))

	m := newU64(Config{Shards: shards, BucketsPerShard: buckets, SlotsPerBucket: slots, D: d, Seed: 21, StashPerShard: 64})
	src := rng.NewXoshiro256(22)
	for n := 0; n < fill; {
		if m.Put(src.Uint64(), 0) {
			n++
		}
	}
	tbl := mchtable.New(mchtable.Config{
		Buckets: shards * buckets, SlotsPerBucket: slots, D: d,
		Mode: mchtable.DoubleHashing, Seed: 23, StashSize: 64,
	})
	for n := 0; n < fill; {
		if tbl.Put(src.Uint64(), 0) {
			n++
		}
	}

	cm := m.Stats().BucketLoads
	r := stats.ChiSquareHomogeneity(&cm, tbl.BucketLoadHist(), 5)
	if r.P < 1e-4 {
		t.Fatalf("sharded vs single-table load distributions distinguishable: chi2=%.2f dof=%d p=%.2e",
			r.Chi2, r.Dof, r.P)
	}
	// And the distribution must look like balanced allocations, not
	// one-choice: at 3 balls per 4-slot bucket, overflowing buckets
	// (load 4 plus a stash spill) are rare, and no load exceeds slots.
	if cm.MaxValue() > slots {
		t.Fatalf("bucket load %d exceeds %d slots", cm.MaxValue(), slots)
	}
	// One-choice (Poisson, mean 3) would fill P(X >= 4) ≈ 0.35 of the
	// buckets; the d=3 least-loaded rule must beat that clearly.
	if f := cm.TailFraction(slots); f > 0.30 {
		t.Fatalf("%.3f of buckets full at 75%% occupancy; d=%d selection is not balancing", f, d)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	run := func() Stats {
		m := newU64(Config{Shards: 8, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, Seed: 31, StashPerShard: 8})
		src := rng.NewXoshiro256(32)
		for i := 0; i < 800; i++ {
			k := src.Uint64()
			m.Put(k, k)
			if i%3 == 0 {
				m.Delete(k)
			}
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a.Len != b.Len || a.Stashed != b.Stashed || a.MinShardLen != b.MinShardLen || a.MaxShardLen != b.MaxShardLen {
		t.Fatalf("same seed, different outcome: %+v vs %+v", a, b)
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 16}, {1, 1}, {2, 2}, {5, 8}, {16, 16}, {100, 128}} {
		m := newU64(Config{Shards: tc.in, BucketsPerShard: 16, SlotsPerBucket: 1, D: 2, Seed: 1})
		if m.Shards() != tc.want {
			t.Errorf("Shards=%d rounded to %d, want %d", tc.in, m.Shards(), tc.want)
		}
	}
}

func TestConfigPanics(t *testing.T) {
	base := Config{Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 1, D: 2, Seed: 1}
	for i, mutate := range []func(c Config) Config{
		func(c Config) Config { c.Shards = -1; return c },
		func(c Config) Config { c.D = 0; return c },
		func(c Config) Config { c.D = maxD + 1; return c },
		func(c Config) Config { c.D = 16; return c }, // D >= BucketsPerShard
		func(c Config) Config { c.BucketsPerShard = 0; return c },
		func(c Config) Config { c.SlotsPerBucket = 0; return c },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			newU64(mutate(base))
		}()
	}
}
