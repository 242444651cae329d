// Command loadgen stress-drives the typed sharded concurrent
// multiple-choice hash map (internal/cmap) with a mixed Put/Get/Delete
// workload across many goroutines and reports throughput plus the
// occupancy statistics the paper's load tables predict: ops/sec,
// per-shard skew, stash pressure, resize progress and the aggregated
// bucket-load histogram.
//
// Knobs shaping the contention and growth profile:
//
//	-keytype which generic key shape the hashers are exercised with:
//	        uint64 (the historical 8-byte path), string (17-byte keys
//	        hashed in place), struct (16-byte packet 5-tuples via the
//	        byte-view hasher), or all — run every kind back to back and
//	        report Mops/sec per key kind
//	-keys   size of the key space (smaller = hotter keys, more same-shard
//	        lock traffic and update-in-place)
//	-read   fraction of operations that are Gets (every key kind reads
//	        lock-free under the seqlock protocol, so high read
//	        fractions scale with GOMAXPROCS and never wait on writers)
//	-mget   batch Gets through the pipelined GetBatch tier, this many
//	        keys per call (0 = per-key Gets); amortizes hashing and
//	        overlaps the probes' cache misses
//	-preset "read-heavy" = the 95% Get / 5% Put serving mix, with every
//	        op's latency recorded into a fixed-bucket histogram
//	        (p50/p99/p999, no sampling bias) on top of Mops/sec — the
//	        profile where the seqlock read path shows up end-to-end
//	-grow   max load factor: shards crossing it double online, migrating
//	        entries in -migrate-batch steps piggybacked on writes
//	-drain  background goroutine driving migration even when writes idle
//	-verify disjoint per-worker key spaces + shadow maps; the run fails
//	        if any key is lost, duplicated or corrupted (a correctness
//	        mode: its op mix differs from the contended benchmark, so
//	        read its Mops/sec as indicative only)
//
// Persistence (the durable map under load):
//
//	-dir DIR  drive repro.DurableMap, the map cmd/served serves, kept in
//	          DIR: every Put and Delete takes its per-key stripe lock and
//	          its group-committed WAL (fsync off: this is a throughput
//	          harness, so Mops/sec includes the log's work), and growth
//	          and -drain run its online resize. A DIR that already holds
//	          a snapshot or a WAL is recovered first, at the flags' shape
//	          (the bucket count follows the records). After every run the
//	          map is closed and DIR reopened, and the recovered map must
//	          equal the live one pair for pair; then it is checkpointed,
//	          reopened and compared again. That holds for contended runs
//	          too: the stripe lock orders each key's log record and map
//	          write. Needs one -keytype and -grow > 0; -verify needs a
//	          DIR that recovers empty, since the oracle starts empty.
//
// Examples:
//
//	loadgen                                  # defaults: 16 shards, 75% reads
//	loadgen -keytype all                     # uint64 vs string vs struct keys
//	loadgen -workers 32 -read 0              # pure write storm
//	loadgen -keys 1024 -shards 4             # hot-key shard contention
//	loadgen -keytype string -buckets 256 -grow 0.75 -verify
//	                                         # typed keys + live growth
//	                                         # crossing the watermark
//	                                         # mid-stream, checked
//	loadgen -keytype string -grow 0.75 -dir /tmp/lg -verify
//	                                         # durability under load: the
//	                                         # recovered map checked twice
//	loadgen -keytype string -grow 0.75 -dir /tmp/lg -keys 1024 -shards 64
//	                                         # recover at another shape and
//	                                         # keep driving shared hot keys
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/testutil"
)

// fiveTuple is the struct key kind: a padding-free 16-byte packet
// 5-tuple, hashed by the byte-view hasher. SrcIP/DstIP carry all 64 bits
// of the generator's id, so the mapping is injective (required by the
// -verify oracle).
type fiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint16
	Zone             uint16
}

type config struct {
	shards, buckets, slots, d, stash int
	workers, ops, keys               int
	read, del, grow                  float64
	batch                            int
	mget                             int
	latency                          bool
	bg, verify                       bool
	seed                             uint64
	dir                              string
}

// options is the map shape the flags describe.
func (c config) options() []repro.Option {
	return []repro.Option{
		repro.WithShards(c.shards), repro.WithBuckets(c.buckets), repro.WithSlots(c.slots),
		repro.WithD(c.d), repro.WithSeed(c.seed), repro.WithStash(c.stash),
		repro.WithMaxLoadFactor(c.grow), repro.WithMigrateBatch(c.batch),
	}
}

func main() {
	var (
		shards  = flag.Int("shards", 16, "shard count (rounded up to a power of two)")
		buckets = flag.Int("buckets", 1<<12, "initial buckets per shard")
		slots   = flag.Int("slots", 4, "slots per bucket")
		d       = flag.Int("d", 3, "candidate buckets per key")
		stash   = flag.Int("stash", 32, "overflow stash capacity per shard")
		workers = flag.Int("workers", 0, "concurrent workers (0 = GOMAXPROCS)")
		ops     = flag.Int("ops", 2_000_000, "total operations across all workers")
		keys    = flag.Int("keys", 0, "key-space size (0 = 75% of initial slot capacity)")
		keytype = flag.String("keytype", "uint64", "key kind: uint64, string, struct, or all")
		read    = flag.Float64("read", 0.75, "fraction of ops that are Gets")
		del     = flag.Float64("delete", 0.05, "fraction of ops that are Deletes")
		grow    = flag.Float64("grow", 0, "max load factor enabling online resize (0 = fixed capacity)")
		batch   = flag.Int("migrate-batch", 32, "entries migrated per Put/Delete during a resize")
		mget    = flag.Int("mget", 0, "batch Gets through GetBatch, this many keys per call (0 = per-key Gets)")
		preset  = flag.String("preset", "", `workload preset: "read-heavy" = 95% Get / 5% Put with p50/p99 latency sampling`)
		bg      = flag.Bool("drain", false, "run a background migration drainer alongside the workers")
		verify  = flag.Bool("verify", false, "per-worker shadow maps; fail on any lost/duplicated/corrupted key")
		seed    = flag.Uint64("seed", 1, "base random seed")
		dir     = flag.String("dir", "", "drive the durable map kept in this directory, recovering what it holds; its recovery is checked after the run")
		netAddr = flag.String("net", "", "drive a served instance at this address over the wire protocol instead of the in-process map")
		conns   = flag.Int("conns", 0, "network mode: concurrent client connections (0 = GOMAXPROCS)")
		rate    = flag.Float64("rate", 0, "network mode: open-loop target ops/sec across all connections (0 = closed loop)")
		jsonOut = flag.String("json", "", "network mode: write a machine-readable throughput/latency summary to this file")
	)
	flag.Parse()

	latency := false
	switch *preset {
	case "":
	case "read-heavy":
		*read, *del = 0.95, 0
		latency = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -preset %q (want read-heavy)\n", *preset)
		os.Exit(2)
	}
	if *mget < 0 {
		fmt.Fprintln(os.Stderr, "need -mget >= 0")
		os.Exit(2)
	}
	if *mget > 0 && *verify && *netAddr == "" {
		// The concurrent oracle issues per-key ops; batched lookups are
		// differentially tested by the testutil OpGetBatch op instead.
		// (Network mode supports both together: its shadow maps check
		// every MGET slot.)
		fmt.Fprintln(os.Stderr, "note: -verify drives per-key ops; -mget ignored")
		*mget = 0
	}
	if *read < 0 || *del < 0 || *read+*del > 1 {
		fmt.Fprintln(os.Stderr, "need read >= 0, delete >= 0 and read+delete <= 1")
		os.Exit(2)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *netAddr != "" {
		// Network mode: the map lives in the served process; every other
		// in-process knob (geometry, the durable directory) is its
		// concern, not loadgen's.
		if *dir != "" {
			fmt.Fprintln(os.Stderr, "-net drives a remote map; -dir does not apply")
			os.Exit(2)
		}
		if *conns == 0 {
			*conns = runtime.GOMAXPROCS(0)
		}
		if *keys == 0 {
			*keys = 1 << 16
		}
		runNet(config{
			ops: *ops, keys: *keys, read: *read, del: *del,
			mget: *mget, verify: *verify, seed: *seed,
		}, netConfig{addr: *netAddr, conns: *conns, rate: *rate, jsonPath: *jsonOut})
		return
	}
	if *batch == 0 {
		*batch = 32 // cmap's documented default; MigrateStep rejects n <= 0
	}
	capacity := *shards * *buckets * *slots
	if *keys == 0 {
		*keys = int(0.75 * float64(capacity))
	}
	cfg := config{
		shards: *shards, buckets: *buckets, slots: *slots, d: *d, stash: *stash,
		workers: *workers, ops: *ops, keys: *keys,
		read: *read, del: *del, grow: *grow, batch: *batch,
		mget: *mget, latency: latency,
		bg: *bg, verify: *verify, seed: *seed, dir: *dir,
	}
	if *dir != "" && *keytype == "all" {
		fmt.Fprintln(os.Stderr, "-dir needs a single -keytype (the directory's records are keyed to it)")
		os.Exit(2)
	}
	if *dir != "" && *grow <= 0 {
		fmt.Fprintln(os.Stderr, "-dir needs -grow > 0: a durable map must grow, or its WAL replay could hit a capacity rejection")
		os.Exit(2)
	}

	kinds := []string{*keytype}
	if *keytype == "all" {
		kinds = []string{"uint64", "string", "struct"}
	}
	type result struct {
		kind string
		mops float64
	}
	var results []result
	for i, kind := range kinds {
		if i > 0 {
			fmt.Println()
		}
		var mops float64
		switch kind {
		case "uint64":
			mops = run(cfg, kind, keyed.Uint64, keyed.Uint64Codec, func(k uint64) uint64 { return k })
		case "string":
			mops = run(cfg, kind, keyed.ForType[string](), keyed.CodecFor[string](),
				func(k uint64) string { return fmt.Sprintf("k%016x", k) })
		case "struct":
			mops = run(cfg, kind, keyed.ForType[fiveTuple](), keyed.CodecFor[fiveTuple](), func(k uint64) fiveTuple {
				return fiveTuple{
					SrcIP: uint32(k), DstIP: uint32(k >> 32),
					SrcPort: uint16(k), DstPort: uint16(k >> 16), Proto: 6,
				}
			})
		default:
			fmt.Fprintf(os.Stderr, "unknown -keytype %q (want uint64, string, struct or all)\n", kind)
			os.Exit(2)
		}
		results = append(results, result{kind, mops})
	}
	if len(results) > 1 {
		fmt.Println("\nThroughput by key kind (one SipHash evaluation per op in every mode):")
		tw := table.New("keytype", "Mops/sec")
		for _, r := range results {
			tw.AddRow(r.kind, fmt.Sprintf("%.2f", r.mops))
		}
		fmt.Print(tw.String())
	}
}

// run drives one workload against a typed map keyed by K, returning the
// measured Mops/sec. keyOf must be injective (the -verify shadow maps
// rely on it).
func run[K comparable](cfg config, kind string, h keyed.Hasher[K], kc keyed.Codec[K], keyOf func(uint64) K) float64 {
	// The container the workload drives: the map, or with -dir the
	// durable map, whose Map is the one the workload reads and grows.
	var (
		m      *repro.Map[K, uint64]
		dm     *repro.DurableMap[K, uint64]
		target store[K]
	)
	if cfg.dir == "" {
		m = repro.NewMapOf[K, uint64](h, cfg.options()...)
		target = m
	} else {
		dm = openDurable(cfg, h, kc)
		if cfg.verify && dm.Len() > 0 {
			fmt.Fprintf(os.Stderr, "-verify needs an empty map, and %s recovered %d pairs: the shadow oracle starts empty\n", cfg.dir, dm.Len())
			os.Exit(2)
		}
		m, target = dm.Map(), durable[K]{dm}
	}
	capacity := m.Stats().Capacity // a recovered map is sized to its records
	fmt.Printf("cmap[%s]: %d shards × %d buckets × %d slots (capacity %d), d=%d, one SipHash per op\n",
		kind, m.Shards(), capacity/(m.Shards()*cfg.slots), cfg.slots, capacity, cfg.d)
	if cfg.grow > 0 {
		fmt.Printf("online resize: watermark %.2f, migrate batch %d, background drainer %v\n", cfg.grow, cfg.batch, cfg.bg)
	}
	mode := ""
	if cfg.mget > 0 {
		mode = fmt.Sprintf(", gets batched %d/GetBatch", cfg.mget)
	}
	fmt.Printf("workload: %d ops on %d workers over %d keys (%.0f%% get / %.0f%% delete / %.0f%% put)%s, verify %v\n\n",
		cfg.ops, cfg.workers, cfg.keys, cfg.read*100, cfg.del*100, (1-cfg.read-cfg.del)*100, mode, cfg.verify)

	// Optional background drainer: migration progresses even when the
	// write mix is too read-heavy to piggyback it quickly. Pointless (and
	// pure lock traffic) with resize disabled, so it needs -grow too.
	var stopDrain atomic.Bool
	var drainWG sync.WaitGroup
	if cfg.bg && cfg.grow > 0 {
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for !stopDrain.Load() {
				if m.MigrateStep(cfg.batch) == 0 {
					// Idle: no shard is resizing. Sleep rather than spin so
					// the drainer doesn't perturb the numbers it exists to
					// protect.
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}

	// One histogram shared by every worker (Record is a single atomic
	// add): every op is recorded, memory is fixed, and the percentiles
	// come straight out of the bucket counts — no sample array, no sort,
	// no every-Nth sampling bias.
	var lat obs.Histogram

	var rejectedCount atomic.Int64
	perWorker := cfg.ops / cfg.workers
	perKeys := uint64(cfg.keys / cfg.workers)
	if perKeys == 0 {
		perKeys = 1
	}
	start := time.Now()
	var elapsedOverride time.Duration
	var res testutil.ConcurrentResult
	if cfg.verify {
		// The shared concurrent differential oracle (internal/testutil, the
		// same harness the cmap race tests use): disjoint per-worker key
		// spaces, per-worker shadow maps, a final lost/corrupted sweep and
		// the Len-vs-shadows duplication check, all through keyOf — the
		// typed key kinds run under the identical oracle. Finalize drains
		// any in-flight migration so the sweep runs on the final geometry.
		res = testutil.RunConcurrentKeyed(target, testutil.ConcurrentOptions{
			Workers: cfg.workers, OpsPerWorker: perWorker, KeysPerWorker: perKeys,
			GetFrac: cfg.read, DeleteFrac: cfg.del, Seed: cfg.seed,
			Finalize: func() {
				for m.MigrateStep(cfg.batch) > 0 {
				}
			},
		}, keyOf, func(v uint64) uint64 { return v })
		rejectedCount.Store(res.Rejected)
		// Time the worker phase only (drain + sweep excluded). Note that
		// -verify still measures a different workload than an unverified
		// run: key spaces are disjoint per worker (no cross-worker hot-key
		// contention) and every op pays shadow-map bookkeeping, so treat
		// its Mops/sec as indicative, not as the contention benchmark.
		elapsedOverride = res.WorkDuration
	} else {
		var wg sync.WaitGroup
		for w := 0; w < cfg.workers; w++ {
			ws := &workerState[K]{
				cfg: cfg, target: target, keyOf: keyOf, lat: &lat,
				src:      rng.NewXoshiro256(rng.Mix64(cfg.seed + uint64(w)*0x9E3779B97F4A7C15)),
				rejected: &rejectedCount, ops: perWorker,
			}
			if cfg.mget > 0 {
				ws.batch = make([]K, 0, cfg.mget)
				ws.bvals = make([]uint64, cfg.mget)
				ws.bfound = make([]bool, cfg.mget)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws.run()
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	if elapsedOverride > 0 {
		elapsed = elapsedOverride
	}
	stopDrain.Store(true)
	drainWG.Wait()

	done := perWorker * cfg.workers
	mops := float64(done) / elapsed.Seconds() / 1e6
	fmt.Printf("%d ops in %v  →  %.2f Mops/sec (GOMAXPROCS=%d)\n",
		done, elapsed.Round(time.Millisecond), mops, runtime.GOMAXPROCS(0))
	if cfg.latency {
		var ls obs.HistSnapshot
		lat.Snapshot(&ls)
		if ls.Count > 0 {
			note := ""
			if cfg.mget > 0 {
				note = fmt.Sprintf(" (batched gets: per-key share of a %d-key GetBatch)", cfg.mget)
			}
			fmt.Printf("per-op latency: p50 %v, p99 %v, p999 %v over %d ops (every op recorded)%s\n",
				time.Duration(ls.Quantile(0.50)), time.Duration(ls.Quantile(0.99)),
				time.Duration(ls.Quantile(0.999)), ls.Count, note)
		}
	}
	if r := rejectedCount.Load(); r > 0 {
		fmt.Printf("rejected puts (all candidates + stash full): %d\n", r)
	}

	st := m.Stats()
	if st.Resizes > 0 || st.Migrating > 0 {
		pending := st.Migrating
		for m.MigrateStep(1024) > 0 {
		}
		st = m.Stats()
		fmt.Printf("\nresizes completed: %d, capacity %d → %d slots, %d entries were still mid-migration at finish (drained to %d)\n",
			st.Resizes, capacity, st.Capacity, pending, st.Migrating)
	}

	fmt.Printf("\noccupancy %.3f  (%d pairs / %d slots), stash %d, shard len min/max %d/%d\n",
		st.Occupancy, st.Len, st.Capacity, st.Stashed, st.MinShardLen, st.MaxShardLen)

	fmt.Println("\nBucket-load histogram (all shards aggregated):")
	tw := table.New("load", "buckets", "fraction")
	for v := 0; v <= st.BucketLoads.MaxValue(); v++ {
		tw.AddRow(fmt.Sprint(v), fmt.Sprint(st.BucketLoads.Count(v)), table.Prob(st.BucketLoads.Fraction(v)))
	}
	fmt.Print(tw.String())

	if cfg.verify {
		duplicated := res.LenDelta // a pair resident in both geometries inflates Len
		if duplicated < 0 {
			duplicated = 0
		}
		fmt.Printf("\nverify: %d lost, %d duplicated, %d corrupted, %d mid-run divergences (%d live keys checked)\n",
			res.Lost, duplicated, res.Corrupted, res.Divergences, res.LiveKeys)
		if err := res.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFY FAILED:", err)
			os.Exit(1)
		}
	}

	if dm != nil {
		checkRecovery(cfg, m, dm, h, kc)
	}
	return mops
}

// workerState is one worker's share of the workload loop, hoisted out
// of the goroutine closure so the hot loop is a named method the
// noalloc analyzer can hold to zero allocations. Every slice the loop
// appends into (the Get batch, its result arrays) is allocated here,
// once, before the first op; latencies go into the shared fixed-size
// histogram.
type workerState[K comparable] struct {
	cfg      config
	target   store[K]
	keyOf    func(uint64) K
	src      rng.Source
	rejected *atomic.Int64
	ops      int
	lat      *obs.Histogram // shared across workers; Record is atomic

	batch  []K      // accumulating Get batch (cfg.mget > 0)
	bvals  []uint64 // GetBatch result scratch
	bfound []bool   // GetBatch result scratch
}

// run is the hot workload loop: ops operations of the configured
// Get/Delete/Put mix, every one timed under -preset read-heavy (two
// monotonic clock reads plus one atomic add per op — cheap enough not
// to bend the throughput it annotates, and free of the every-Nth
// sampling bias the old scheme had). This loop is what the reported
// Mops/sec measures, so it must not allocate — any allocation here
// would be benchmarked as map throughput.
//
//repro:noalloc
func (ws *workerState[K]) run() {
	keySpace := uint64(ws.cfg.keys)
	timed := ws.cfg.latency
	for i := 0; i < ws.ops; i++ {
		k := ws.keyOf(1 + ws.src.Uint64()%keySpace)
		var t0 time.Time
		switch p := rng.Float64(ws.src); {
		case p < ws.cfg.read:
			if ws.cfg.mget > 0 {
				ws.batch = append(ws.batch, k)
				if len(ws.batch) == ws.cfg.mget {
					ws.flush()
				}
				continue
			}
			if timed {
				t0 = time.Now()
			}
			ws.target.Get(k)
		case p < ws.cfg.read+ws.cfg.del:
			if timed {
				t0 = time.Now()
			}
			ws.target.Delete(k)
		default:
			if timed {
				t0 = time.Now()
			}
			if !ws.target.Put(k, uint64(i)) {
				ws.rejected.Add(1)
			}
		}
		if timed {
			ws.lat.Record(time.Since(t0).Nanoseconds())
		}
	}
	ws.flush()
}

// flush resolves the accumulated Get batch through one GetBatch call,
// recording each key's share of the batch's round-trip latency.
//
//repro:noalloc
func (ws *workerState[K]) flush() {
	if len(ws.batch) == 0 {
		return
	}
	var t0 time.Time
	if ws.cfg.latency {
		t0 = time.Now()
	}
	ws.target.GetBatch(ws.batch, ws.bvals[:len(ws.batch)], ws.bfound[:len(ws.batch)])
	if ws.cfg.latency {
		ws.lat.Record(time.Since(t0).Nanoseconds() / int64(len(ws.batch)))
	}
	ws.batch = ws.batch[:0]
}

// openDurable opens the durable map kept in cfg.dir at the flags'
// shape, with WAL fsync off, recovering what the directory holds, and
// prints how it recovered.
func openDurable[K comparable](cfg config, h keyed.Hasher[K], kc keyed.Codec[K]) *repro.DurableMap[K, uint64] {
	start := time.Now()
	dm, err := repro.OpenOf[K, uint64](cfg.dir, h, kc, keyed.Uint64Codec, append(cfg.options(), repro.WithWALSync(false))...)
	if err != nil {
		fatalf("open -dir: %v", err)
	}
	rec := dm.Recovery()
	fmt.Printf("recovered %d pairs from %s in %v (snapshot load %v, wal replay %v, workers %d)\n",
		dm.Len(), cfg.dir, time.Since(start).Round(time.Millisecond), rec.SnapshotLoad.Round(time.Millisecond),
		rec.WALReplay.Round(time.Millisecond), rec.Workers)
	return dm
}

// checkRecovery closes the run's durable map and requires the map
// recovered from its directory to equal the live one, pair for pair:
// once from the log the run wrote, and once more from the snapshot a
// Checkpoint of the recovered map writes.
func checkRecovery[K comparable](cfg config, live *repro.Map[K, uint64], dm *repro.DurableMap[K, uint64], h keyed.Hasher[K], kc keyed.Codec[K]) {
	reopen := func() {
		if err := dm.Close(); err != nil {
			fatalf("close -dir: %v", err)
		}
		dm = openDurable(cfg, h, kc)
		if n := diffMaps(live, dm.Map()); n > 0 {
			fatalf("recovery diverged from the live map on %d pairs", n)
		}
		fmt.Printf("recovery matches the live map exactly (%d pairs)\n", dm.Len())
	}
	fmt.Println()
	reopen()
	start := time.Now()
	if err := dm.Checkpoint(); err != nil {
		fatalf("checkpoint: %v", err)
	}
	elapsed := time.Since(start)
	st, err := os.Stat(filepath.Join(cfg.dir, "snapshot"))
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	fmt.Printf("checkpoint: %d pairs, %d snapshot bytes in %v\n", dm.Len(), st.Size(), elapsed.Round(time.Millisecond))
	reopen()
	if err := dm.Close(); err != nil {
		fatalf("close -dir: %v", err)
	}
}

// diffMaps counts pairs on which the two maps disagree (either
// direction, via the Len cross-check).
func diffMaps[K comparable](a, b *repro.Map[K, uint64]) int {
	diff := 0
	a.Range(func(k K, v uint64) bool {
		if bv, ok := b.Get(k); !ok || bv != v {
			diff++
		}
		return true
	})
	if a.Len() != b.Len() && diff == 0 {
		diff = b.Len() - a.Len() // extras on b's side only
		if diff < 0 {
			diff = -diff
		}
	}
	return diff
}

// store is the container the workload drives: the map itself, or the
// durable map through durable. Both forward GetBatch to cmap's
// pipelined tier.
type store[K comparable] interface {
	testutil.Container[K, uint64]
	GetBatch(keys []K, vals []uint64, found []bool) int
}

// durable is the workload's view of a DurableMap. A write the log
// refuses ends the run: from then on the live map and its directory
// would disagree.
type durable[K comparable] struct{ *repro.DurableMap[K, uint64] }

func (d durable[K]) Put(key K, val uint64) bool {
	if err := d.DurableMap.Put(key, val); err != nil {
		fatalf("durable put: %v", err)
	}
	return true
}

func (d durable[K]) Delete(key K) bool {
	present, err := d.DurableMap.Delete(key)
	if err != nil {
		fatalf("durable delete: %v", err)
	}
	return present
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
