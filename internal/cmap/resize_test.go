package cmap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// drain finishes every in-flight shard migration.
func drain(m *Map[uint64, uint64]) {
	for m.MigrateStep(256) > 0 {
	}
}

func TestResizeLoadHistogramMatchesFreshTable(t *testing.T) {
	// The statistical acceptance criterion for resize: migration re-derives
	// candidates from the *same* stored digests at the doubled geometry, and
	// the paper (with the Mitzenmacher–Thaler follow-up) says double-hashed
	// placement is fully-random-equivalent at every table shape — so a map
	// that grew online under churn must be chi-square-indistinguishable
	// from a map built fresh at the final geometry. A systematic skew here
	// would mean re-derived candidates are not as good as fresh ones. A
	// power-of-two start doubles; a prime start grows to the smallest
	// prime at least twice it, and must meet the same gate.
	for _, buckets := range []int{256, 251} {
		testResizeMatchesFresh(t, buckets)
	}
}

// testResizeMatchesFresh grows a map from buckets buckets per shard once
// under churn and compares it with one built fresh at the geometry it
// grew to. Every geometry a shard reaches must be prime or a power of
// two, the sizes the Deriver serves without its coprime remix.
func testResizeMatchesFresh(t *testing.T, buckets int) {
	const (
		shards    = 4
		slots     = 4
		d         = 3
		perShard  = 1200 // > 0.75·1024 triggers; 1200/2048 = 0.59 < 0.75 after doubling
		finalKeys = shards * perShard
		watermark = 0.75
	)
	grownTo := grownBuckets(buckets)
	grown := New(Config{
		Shards: shards, BucketsPerShard: buckets, SlotsPerBucket: slots, D: d,
		Seed: 41, StashPerShard: 64, MaxLoadFactor: watermark, MigrateBatch: 8,
	})
	fastPath := func(n int) bool { return numeric.IsPrime(uint64(n)) || numeric.IsPowerOfTwo(uint64(n)) }
	checkGeometries := func() {
		for i := range grown.shards {
			c := grown.shards[i].core
			if n := c.Buckets(); !fastPath(n) {
				t.Fatalf("start %d: shard %d at %d buckets, neither prime nor a power of two", buckets, i, n)
			}
			if next := c.Next(); next != nil && !fastPath(next.Buckets()) {
				t.Fatalf("start %d: shard %d growing to %d buckets, neither prime nor a power of two", buckets, i, next.Buckets())
			}
		}
	}
	src := rng.NewXoshiro256(42)
	churnTo(t, grown, src, finalKeys, checkGeometries)
	drain(grown)
	checkGeometries()

	gst := grown.Stats()
	if gst.Resizes != shards {
		t.Fatalf("start %d: want each of %d shards resized exactly once, got %d resizes", buckets, shards, gst.Resizes)
	}
	if gst.Migrating != 0 {
		t.Fatalf("start %d: %d entries still migrating after drain", buckets, gst.Migrating)
	}
	if got := gst.BucketLoads.Total(); got != int64(shards*grownTo) {
		t.Fatalf("start %d: final geometry has %d buckets, want %d", buckets, got, shards*grownTo)
	}

	// Fresh baseline: same final geometry, no resize, the same churn to
	// the same occupancy. Deletes shift the load distribution away from
	// an insert-only table's (the paper's §2.2), so only a churned
	// baseline isolates what the resize itself does.
	fresh := New(Config{
		Shards: shards, BucketsPerShard: grownTo, SlotsPerBucket: slots, D: d,
		Seed: 43, StashPerShard: 64,
	})
	churnTo(t, fresh, src, grown.Len(), func() {})

	fst := fresh.Stats()
	r := stats.ChiSquareHomogeneity(&gst.BucketLoads, &fst.BucketLoads, 5)
	if r.P < 1e-4 {
		t.Fatalf("start %d: grown vs fresh load distributions distinguishable: chi2=%.2f dof=%d p=%.2e",
			buckets, r.Chi2, r.Dof, r.P)
	}
	// And the grown map must still look balanced, not one-choice: loads
	// never exceed the slot count (overflow went to the stash, rarely).
	if gst.BucketLoads.MaxValue() > slots {
		t.Fatalf("start %d: bucket load %d exceeds %d slots after resize", buckets, gst.BucketLoads.MaxValue(), slots)
	}
}

// churnTo fills m to n pairs with keys from src, deleting a random live
// key in place of about one insert in five, so resizes run under mixed
// traffic, not a pure fill. after runs after every insert.
func churnTo(t *testing.T, m *Map[uint64, uint64], src *rng.Xoshiro256, n int, after func()) {
	t.Helper()
	var live []uint64
	for m.Len() < n {
		if len(live) > 0 && src.Uint64()%5 == 0 {
			i := int(src.Uint64() % uint64(len(live)))
			if !m.Delete(live[i]) {
				t.Fatal("live key missing during churn")
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		k := src.Uint64()
		if !m.Put(k, k) {
			t.Fatal("put rejected while growth is enabled")
		}
		live = append(live, k)
		after()
	}
}

func TestRaceResizeHandoff(t *testing.T) {
	// The resize race criterion (run under `go test -race`, which `make
	// race` and the CI race job do): concurrent Put/Get/Delete racing
	// in-flight migrations with a forced MigrateBatch of 1 and a background
	// drainer, across repeated doublings. No key may be lost, duplicated or
	// corrupted across the old/new table hand-off.
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const (
		perWorker     = 4000
		keysPerWorker = 600
	)
	m := New(Config{
		Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 2, D: 3, Seed: 51,
		StashPerShard: 8, MaxLoadFactor: 0.7, MigrateBatch: 1,
	})

	// Background drainer: the optional migration driver racing the
	// piggybacked steps.
	var stop atomic.Bool
	var drainerDone sync.WaitGroup
	drainerDone.Add(1)
	go func() {
		defer drainerDone.Done()
		for !stop.Load() {
			if m.MigrateStep(1) == 0 {
				runtime.Gosched()
			}
		}
	}()

	// The shared concurrent oracle drives the workload: per-worker shadow
	// maps over disjoint key spaces, a final lost/corrupted sweep, and the
	// Len-vs-shadows duplication check (a pair resident in both geometries
	// would inflate Len). Finalize drains the migration first so the sweep
	// exercises the promoted geometry.
	res := testutil.RunConcurrent(m, testutil.ConcurrentOptions{
		Workers: workers, OpsPerWorker: perWorker, KeysPerWorker: keysPerWorker,
		GetFrac: 0.25, DeleteFrac: 0.25, Seed: 7,
		Finalize: func() { drain(m) },
	})
	stop.Store(true)
	drainerDone.Wait()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	if st.Resizes == 0 {
		t.Fatal("the handoff race never actually resized; shrink the initial geometry")
	}
	if st.Migrating != 0 {
		t.Fatalf("%d entries still migrating after drain", st.Migrating)
	}
}
