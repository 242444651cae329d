package cmap

import (
	"math"
	"testing"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// TestCappedFluidMatchesLiveMap checks the model the growth rule rests
// on: the d-choice fluid limit, capped at a bucket's slots with the
// overflow sent to a stash, predicts how many pairs a live fixed-capacity
// map stashes. Each map loads to 0.9 with a stash too large to fill, so
// no pair is rejected; the stashed count must lie within four standard
// deviations, 4·√(predicted), of the prediction.
func TestCappedFluidMatchesLiveMap(t *testing.T) {
	const (
		shards = 4
		slotsT = 1 << 18 // slot capacity of each map
		pairs  = slotsT * 9 / 10
	)
	for _, c := range []struct{ d, slots int }{{3, 4}, {2, 8}, {4, 4}, {3, 8}, {2, 4}} {
		buckets := slotsT / shards / c.slots
		m := New(Config{
			Shards: shards, BucketsPerShard: buckets, SlotsPerBucket: c.slots, D: c.d,
			Seed: 61, StashPerShard: slotsT / shards / 8,
		})
		src := rng.NewXoshiro256(62)
		for m.Len() < pairs {
			k := src.Uint64()
			if !m.Put(k, k) {
				t.Fatalf("d=%d slots=%d: Put rejected with the stash unfilled", c.d, c.slots)
			}
		}
		curve := stashCurve(c.d, c.slots)
		want := curve[(len(curve)-1)*pairs/slotsT] * float64(shards*buckets)
		got := m.Stats().Stashed
		if math.Abs(float64(got)-want) > 4*math.Sqrt(want) {
			t.Errorf("d=%d slots=%d: %d pairs stashed, fluid limit predicts %.0f ± %.0f",
				c.d, c.slots, got, want, 4*math.Sqrt(want))
		}
	}
}

// TestWatermarkServedShape pins W(N) for served's shape (d=3, 4 slots,
// a 32-entry stash): it falls as shards grow, because the stash holds a
// fixed count while the predicted overflow grows with capacity.
func TestWatermarkServedShape(t *testing.T) {
	g := newGrowthRule(Config{D: 3, SlotsPerBucket: 4, StashPerShard: 32, MaxLoadFactor: 0.9})
	for _, c := range []struct {
		buckets int
		want    float64
	}{{256, 0.867}, {4096, 0.767}, {44111, 0.709}, {65536, 0.700}} {
		if got := g.watermark(c.buckets); math.Abs(got-c.want) > 0.001 {
			t.Errorf("W(%d) = %.4f, want %.3f", c.buckets, got, c.want)
		}
	}
	capped := newGrowthRule(Config{D: 3, SlotsPerBucket: 4, StashPerShard: 32, MaxLoadFactor: 0.8})
	if got := capped.watermark(256); got != 0.8 {
		t.Errorf("W(256) under MaxLoadFactor 0.8 = %v, want the cap", got)
	}
	prev := 0
	for n := 64; n <= 1<<22; n = n*3/2 + 1 {
		if l := g.limit(n); l < prev {
			t.Fatalf("limit(%d) = %d below a smaller geometry's %d", n, l, prev)
		} else {
			prev = l
		}
	}
}

// TestGrownBucketsStaysOnFastPaths: a power of two doubles, any other
// count grows to the smallest prime at least twice it, so no geometry
// reaches the Deriver's coprime remix.
func TestGrownBucketsStaysOnFastPaths(t *testing.T) {
	for _, c := range []struct{ n, want int }{{256, 512}, {1 << 12, 1 << 13}, {509, 1019}, {44729, 89459}, {1000, 2003}} {
		if got := grownBuckets(c.n); got != c.want {
			t.Errorf("grownBuckets(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestBucketsForPresizeNeverResizes is the presize sweep: at every load
// from 0.50 to 0.95 of several geometries, a map presized by BucketsFor
// and then loaded never resizes, by its watermark or by a backstop.
func TestBucketsForPresizeNeverResizes(t *testing.T) {
	geometries := []Config{
		{Shards: 16, BucketsPerShard: 1024, SlotsPerBucket: 4, D: 3},
		{Shards: 4, BucketsPerShard: 2048, SlotsPerBucket: 8, D: 2},
		{Shards: 8, BucketsPerShard: 509, SlotsPerBucket: 4, D: 4},
		{Shards: 2, BucketsPerShard: 4096, SlotsPerBucket: 8, D: 3},
	}
	for gi, cfg := range geometries {
		cfg.Seed, cfg.MaxLoadFactor = uint64(70+gi), 0.9
		for pct := 50; pct <= 95; pct += 5 {
			pairs := pct * cfg.Shards * cfg.BucketsPerShard * cfg.SlotsPerBucket / 100
			sized := cfg
			sized.BucketsPerShard = BucketsFor(cfg, pairs)
			if n := sized.BucketsPerShard; n != cfg.BucketsPerShard && !numeric.IsPrime(uint64(n)) {
				t.Fatalf("%+v at %d%%: presized to %d buckets, neither the configured count nor prime", cfg, pct, n)
			}
			m := New(sized)
			src := rng.NewXoshiro256(uint64(pct))
			for m.Len() < pairs {
				k := src.Uint64()
				m.Put(k, k)
			}
			if st := m.Stats(); st.Resizes != 0 || st.Migrating != 0 || st.BackstopResizes != 0 {
				t.Errorf("%+v at %d%%: presized to %d buckets, loading resized %d times (%d backstops, %d migrating)",
					cfg, pct, sized.BucketsPerShard, st.Resizes, st.BackstopResizes, st.Migrating)
			}
		}
	}
}

// TestBackstopCountsCollapsedDigests: a hasher that collapses every key
// onto a handful of digests sends them all to the same few buckets,
// whatever the geometry, so the watermark never fires first: stash
// pressure and rejected Puts grow the shard instead, and each of those
// doublings is counted as a backstop. The same keys under the real
// hasher grow, if at all, by the watermark alone.
func TestBackstopCountsCollapsedDigests(t *testing.T) {
	collapsed := func(k hashes.SipKey, key uint64) uint64 { return keyed.Uint64(k, key%4) }
	cfg := Config{Shards: 1, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 81,
		StashPerShard: 8, MaxLoadFactor: 0.9, MigrateBatch: 64}
	// Four digests reach at most 4·d buckets: 48 slots, whatever the
	// geometry. 64 keys overflow them, and each doubling re-arms stash
	// pressure, so a few doublings follow.
	bad := NewKeyed[uint64, uint64](collapsed, cfg)
	for k := uint64(0); k < 64; k++ {
		bad.Put(k, k)
	}
	if st := bad.Stats(); st.BackstopResizes == 0 {
		t.Errorf("collapsed digests: %d resizes, none counted as a backstop", st.Resizes)
	}
	good := NewKeyed[uint64, uint64](keyed.Uint64, cfg)
	for k := uint64(0); k < 400; k++ {
		if !good.Put(k, k) {
			t.Fatalf("Put(%d) rejected under the real hasher", k)
		}
	}
	if st := good.Stats(); st.Resizes == 0 || st.BackstopResizes != 0 {
		t.Errorf("real hasher: %d resizes, %d backstops; want growth by the watermark alone", st.Resizes, st.BackstopResizes)
	}
}
