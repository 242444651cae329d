// Dedupstore: dimensioning and then actually serving a fingerprint index,
// the ChunkStash-style deduplication scenario the paper's introduction
// cites as a deployed user of multiple-choice hashing with double hashing
// in hardware-friendly form ([11] Debnath–Sengupta–Li).
//
// A dedup store keeps an in-memory index mapping chunk fingerprints to
// flash locations. With the typed API the index speaks the store's real
// domain directly: keys are content-digest strings ("sha256:…", hashed in
// place by the string hasher — one SipHash evaluation per lookup, zero
// allocations), values are typed FlashLoc structs. The old uint64 version
// of this example had to truncate fingerprints into integers and pack
// locations into shifted bits by hand; that encoding layer is gone.
//
// Ingest is parallel — several streams chunk and hash data at once — so
// the index is a repro.Map: fingerprints route by one SipHash digest to a
// shard and to d candidate buckets inside it, writers on different shards
// never contend, and bucket occupancy inside every shard follows the
// paper's balanced-allocation tables.
//
// The program first *dimensions* the buckets with the balls-into-bins
// simulator (what fraction of buckets would exceed c slots at full
// occupancy?), then *builds* the index: concurrent ingest streams insert
// fingerprints until the map holds one per bucket on average, and the
// measured bucket-load distribution is printed next to the simulator's
// prediction — the dimensioning transfers to the live structure because
// each shard is exactly the simulated process, whatever the key type.
//
// Finally it makes the index *crash-recoverable*: a second, durable
// index (repro.Open = snapshot + write-ahead log) ingests fingerprints,
// checkpoints, takes more writes that live only in the WAL, and is then
// abandoned mid-flight — the crash. Reopening the same directory at a
// DIFFERENT geometry recovers every acknowledged fingerprint: entries
// carry their hash digests, so the snapshot reloads at any shard/bucket
// shape and the WAL replays on top.
//
// Run with: go run ./examples/dedupstore
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro"
)

// FlashLoc is where a chunk lives on flash — a typed value, no bit
// packing.
type FlashLoc struct {
	Block  uint32
	Offset uint32
}

func main() {
	const (
		shards   = 8
		buckets  = 1 << 13 // per shard; 65536 buckets total
		slots    = 4       // generous; the question is how few are needed
		d        = 4
		trials   = 20
		totalBkt = shards * buckets
	)

	// Phase 1 — dimension: the classic d=4 double-hashing load profile at
	// one fingerprint per bucket, from the paper's simulator.
	sim := repro.Run(repro.Config{
		N: totalBkt, M: totalBkt, D: d,
		Hashing: repro.DoubleHash, Trials: trials, Seed: 1,
	})

	// Phase 2 — build: concurrent ingest streams fill the live index to
	// the same occupancy (one fingerprint per bucket on average). Fixed
	// capacity: a dedup index is dimensioned up front, so growth stays
	// off and overflow goes to the per-shard stash.
	idx := repro.NewMap[string, FlashLoc](
		repro.WithShards(shards), repro.WithBuckets(buckets), repro.WithSlots(slots),
		repro.WithD(d), repro.WithSeed(7), repro.WithStash(64),
		repro.WithMaxLoadFactor(0),
	)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	perWorker := totalBkt / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := repro.NewRandomSource(uint64(w)*13 + 5)
			for stored := 0; stored < perWorker; {
				// The chunk's content digest, as the store would key it.
				fp := fmt.Sprintf("sha256:%016x%016x", src.Uint64(), src.Uint64())
				loc := FlashLoc{Block: uint32(stored / 64), Offset: uint32(stored % 64)}
				if idx.Put(fp, loc) {
					stored++
				}
			}
		}(w)
	}
	wg.Wait()
	st := idx.Stats()

	fmt.Printf("fingerprint index: %d shards × %d buckets, d=%d, %d ingest streams, %d fingerprints\n",
		shards, buckets, d, workers, st.Len)
	fmt.Printf("keys: content-digest strings hashed in place (one SipHash, 0 allocs per op); values: typed FlashLoc\n\n")
	fmt.Println("Bucket load  Simulated (classic d=4)  Measured (live map)")
	maxLoad := sim.MaxObservedLoad()
	if st.BucketLoads.MaxValue() > maxLoad {
		maxLoad = st.BucketLoads.MaxValue()
	}
	for l := 0; l <= maxLoad; l++ {
		fmt.Printf("%11d  %23.5f  %19.5f\n", l, sim.FractionAtLoad(l), st.BucketLoads.Fraction(l))
	}

	fmt.Println("\nOverflow by bucket capacity (fraction of buckets exceeding c slots):")
	fmt.Println("Capacity c  Simulated  Measured")
	for c := 1; c <= 3; c++ {
		fmt.Printf("%10d  %9.2e  %8.2e\n", c, sim.TailFraction(c+1), st.BucketLoads.TailFraction(c+1))
	}
	fmt.Printf("\nstash holds %d of %d fingerprints; shard fill min/max %d/%d\n",
		st.Stashed, st.Len, st.MinShardLen, st.MaxShardLen)

	fmt.Println("\nThe live concurrent index reproduces the simulated distribution:")
	fmt.Println("dimension the buckets from the paper's tables, then serve parallel")
	fmt.Println("ingest from the same math — one hash per fingerprint end to end,")
	fmt.Println("straight from the store's own key and value types.")

	// Phase 3 — survive a crash: the same index, made durable.
	durable()
}

// durable demonstrates the persistence subsystem on the dedup index:
// durable ingest, a checkpoint, WAL-only writes, a crash, and recovery
// at a different geometry.
func durable() {
	const (
		checkpointed = 3000 // fingerprints covered by the snapshot
		walOnly      = 500  // fingerprints that exist only in the WAL
	)
	dir, err := os.MkdirTemp("", "dedupstore-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	fp := func(i int) string { return fmt.Sprintf("sha256:%064x", i*2654435761) }

	// A modest geometry for the durable run; growth on (Open requires it —
	// WAL replay must never hit a capacity rejection).
	store, err := repro.Open[string, FlashLoc](dir,
		repro.WithShards(4), repro.WithBuckets(64), repro.WithD(4), repro.WithSeed(7))
	if err != nil {
		panic(err)
	}
	// Parallel durable ingest: every Put is acknowledged only after its
	// WAL record is fsynced; concurrent writers share fsyncs (group
	// commit).
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < checkpointed; i += workers {
				if err := store.Put(fp(i), FlashLoc{Block: uint32(i / 64), Offset: uint32(i % 64)}); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := store.Checkpoint(); err != nil { // snapshot written, WAL reset
		panic(err)
	}
	for i := checkpointed; i < checkpointed+walOnly; i++ { // WAL-only tail
		if err := store.Put(fp(i), FlashLoc{Block: uint32(i / 64), Offset: uint32(i % 64)}); err != nil {
			panic(err)
		}
	}
	fmt.Printf("\nDurable index: %d fingerprints ingested through the WAL by %d streams,\n", store.Len(), workers)
	fmt.Printf("checkpoint covers %d, the last %d live only in the log. Crashing now —\n", checkpointed, walOnly)
	// The crash: no Close, no second checkpoint. The handle is abandoned
	// with the last writes sitting in the WAL.
	store = nil

	// Recovery — at 4× the shards of the writer, because the shape is the
	// new process's choice, not the file's. The bucket count is the
	// records': Open counts the snapshot's records and the WAL's Puts and
	// presizes each shard to hold them, whatever WithBuckets says.
	recovered, err := repro.Open[string, FlashLoc](dir,
		repro.WithShards(16), repro.WithD(4), repro.WithSeed(7))
	if err != nil {
		panic(err)
	}
	defer recovered.Close()
	missing := 0
	for i := 0; i < checkpointed+walOnly; i++ {
		want := FlashLoc{Block: uint32(i / 64), Offset: uint32(i % 64)}
		if got, ok := recovered.Get(fp(i)); !ok || got != want {
			missing++
		}
	}
	rst := recovered.Stats()
	fmt.Printf("recovered %d/%d fingerprints at a 16-shard geometry (was 4): %d missing or corrupt\n",
		recovered.Len(), checkpointed+walOnly, missing)
	fmt.Printf("(snapshot + WAL replay; %d shards × buckets presized to the records, occupancy %.2f)\n", rst.Shards, rst.Occupancy)
	fmt.Println("\nEvery acknowledged fingerprint survived the crash, and the index came")
	fmt.Println("back at a different shard/bucket shape: snapshots store (key, value,")
	fmt.Println("digest) and candidates re-derive from the digest at any geometry.")
}
