// Package cmap is a concurrency-safe, sharded multiple-choice hash map —
// the production-shaped version of internal/mchtable for many
// goroutines — generic over key and value types.
//
// Every key is hashed once through a keyed.Hasher (SipHash-2-4); the
// digest's high bits route the key to one of 2^k shards and the remaining
// bits derive the paper's (f, g) pair inside the shard
// (hashes.ShardSplit), so the whole map keeps the one-hash double-hashing
// discipline: one keyed hash evaluation yields the shard and all d
// candidate buckets. Each shard is an independent mchtable.Core — fixed-
// slot buckets, least-loaded placement over the d double-hashed
// candidates, an overflow stash drained as deletes free slots — guarded
// by its own RWMutex. Within a shard, bucket occupancy follows the
// balanced-allocation load distribution of the paper (the equivalence
// holds at every table size, per Mitzenmacher–Thaler's follow-up
// analysis), so stash overflow can be provisioned from the paper's tables
// exactly as in the single-threaded table.
//
// # Seqlock reads
//
// For seq-capable key/value types (pointer-free, size a multiple of 4
// bytes — mchtable.SeqCapable; uint64s, fixed arrays, packet 5-tuple
// structs), Get and GetBatch never take the shard lock on their fast
// path. Each shard carries a sequence counter that writers bump to odd
// on entering a mutation and back to even on leaving; a reader snapshots
// the counter, probes the shard's published bucket views and stash with
// atomic word reads (both geometries mid-resize, old first), and accepts
// the result only if the counter is still the same even value — anything
// else means a writer overlapped the probe and the value may be torn, so
// the reader retries, falling back to the read lock after a few spins so
// readers never starve under write churn. Readers therefore wait on no
// lock, block no writer, and cost writers two uncontended atomic
// increments; see internal/mchtable's seq-mode notes for why both sides
// use word-granular atomics (Go's memory model, unlike a C seqlock's,
// does not forgive torn plain reads even when discarded).
//
// Pointerful types (string keys, slice values, ...) keep the classic
// read-lock path: raw word stores would bypass the garbage collector's
// write barriers, so those types are never published to lock-free
// readers.
//
// # Online incremental resize
//
// With MaxLoadFactor set, a shard whose occupancy crosses the watermark
// (or whose stash comes under pressure) allocates a doubled-bucket-count
// core and migrates entries over in MigrateBatch-sized steps piggybacked
// on subsequent Put and Delete calls (or driven externally through
// MigrateStep). Each entry's in-shard digest is stored alongside it, so
// migration re-derives candidates for the doubled geometry from the same
// single hash evaluation — resize is a pure re-placement, no key is
// ever re-hashed, and the one-hash discipline survives every doubling
// (double hashing behaves fully-random at any table shape, per the
// follow-up analysis). Mid-migration, reads consult the old geometry
// first and the new one second, so no key is ever unreachable; writes land
// in the new geometry, moving a still-old-resident key across as a free
// migration step. Shards resize independently: one shard's migration
// never blocks another shard's traffic, and a Get never performs
// migration work — a seqlock Get proceeds in parallel with an in-flight
// batch step and retries only if the step overlaps its probe, while a
// fallback (locked) read can wait behind one, bounded by MigrateBatch.
//
// The keyed hash evaluation always happens outside the shard lock. With
// resize enabled, the cheap geometry-dependent candidate expansion moves
// under the lock on the write path, because a doubling may change the
// shard's bucket count at any write; seqlock readers instead validate
// that their deriver and bucket view describe the same geometry and
// retry on mismatch, keeping the whole read path lock-free.
package cmap

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/mchtable"
)

// maxD bounds the candidate count so per-call candidate sets fit in a
// stack array (no allocation, no shared scratch).
const maxD = 16

// seqSpins is how many torn-read retries an optimistic reader attempts
// before falling back to the shard's read lock. Retries are only caused
// by writer overlap on the same shard, so a couple of spins almost
// always suffice; the fallback bounds reader latency under pathological
// write churn instead of spinning forever.
const seqSpins = 8

// Config declares a sharded map.
type Config struct {
	Shards          int    // shard count, rounded up to a power of two; 0 means 16
	BucketsPerShard int    // initial buckets per shard (required, > 0)
	SlotsPerBucket  int    // slots per bucket (required, > 0)
	D               int    // candidate buckets per key (required, 0 < D <= 16)
	Seed            uint64 // hash key material
	StashPerShard   int    // per-shard overflow stash capacity; 0 means 32

	// MaxLoadFactor enables online resize: a shard whose occupancy
	// (stored pairs, stash included, over slot capacity) exceeds this
	// watermark doubles its bucket count and migrates incrementally. 0
	// disables resize (the map is fixed-capacity and rejects overflow,
	// the pre-resize behaviour); otherwise it must lie in (0, 1].
	MaxLoadFactor float64
	// MigrateBatch is the number of entries each Put or Delete migrates
	// as a piggybacked resize step; 0 means 32 when resize is enabled.
	MigrateBatch int
}

// shard is one lockable placement core plus its geometry. seq is the
// seqlock generation counter: odd exactly while a mutation is in flight
// (see lock/unlock), read by the lock-free Get path. The derivers are
// atomic pointers because lock-free readers chase them while a promotion
// swaps them; deriver matches the core's current bucket count,
// nextDeriver the doubled geometry while a resize is in flight. The
// trailing pad keeps adjacent shards' hot words off one cache line, so
// uncontended shards do not false-share.
type shard[K comparable, V any] struct {
	//repro:lockclass cmap-shard 30
	mu          sync.RWMutex
	seq         atomic.Uint64
	core        *mchtable.Core[K, V] // set once at construction; the pointer itself never changes
	deriver     atomic.Pointer[hashes.Deriver]
	nextDeriver atomic.Pointer[hashes.Deriver]
	candsOf     func(tag uint64) []uint32 // current-geometry drain derivation
	newCandsOf  func(tag uint64) []uint32 // new-geometry drain/migrate derivation
	scratch     []uint32                  // candsOf target; guarded by mu (write side)
	newScratch  []uint32                  // newCandsOf target; guarded by mu (write side)

	// Seqlock read-path health, surfaced through Stats: torn or
	// overlapped optimistic attempts that retried, and reads that gave
	// up spinning (or snapshotted mid-mutation in GetBatch) and took
	// the lock. Bumped only off the fast path — a clean first-attempt
	// read touches neither — so counting costs the steady state
	// nothing.
	seqRetries   atomic.Uint64
	seqFallbacks atomic.Uint64

	_ [64]byte
}

// lock enters a shard mutation: writer exclusion plus the seqlock
// generation bump to odd that makes concurrent optimistic readers
// discard anything they read while the mutation runs.
//
//repro:noalloc
func (sh *shard[K, V]) lock() {
	sh.mu.Lock()
	sh.seq.Add(1)
}

// unlock leaves a shard mutation, bumping the generation back to even
// (and past every reader snapshot taken before the mutation).
//
//repro:noalloc
func (sh *shard[K, V]) unlock() {
	sh.seq.Add(1)
	sh.mu.Unlock()
}

// Map is the sharded multiple-choice hash map from K keys to V values.
// It is safe for concurrent use by multiple goroutines.
type Map[K comparable, V any] struct {
	shardBits    int
	d            int
	sipKey       hashes.SipKey
	seed         uint64 // sipKey's seed material, recorded in snapshot headers
	hash         keyed.Hasher[K]
	maxLoad      float64
	migrateBatch int
	seqRead      bool     // lock-free Get path enabled (K and V are SeqCapable)
	metrics      *Metrics // optional latency/probe instrumentation; nil = uninstrumented
	shards       []shard[K, V]
	mgetPool     sync.Pool // *mgetScratch[K, V], reused across GetBatch calls
}

// New returns an empty uint64 → uint64 map hashed with the canonical
// little-endian uint64 hasher — the library's historical key shape,
// byte-identical digests included. It panics on invalid configuration.
func New(cfg Config) *Map[uint64, uint64] {
	return NewKeyed[uint64, uint64](keyed.Uint64, cfg)
}

// NewKeyed returns an empty typed map whose single keyed hash evaluation
// per operation is h. It panics on invalid configuration or a nil hasher.
func NewKeyed[K comparable, V any](h keyed.Hasher[K], cfg Config) *Map[K, V] {
	if h == nil {
		panic("cmap: nil hasher")
	}
	if cfg.Shards < 0 {
		panic(fmt.Sprintf("cmap: Shards = %d", cfg.Shards))
	}
	shards := shardCount(cfg.Shards)
	shardBits := bits.TrailingZeros(uint(shards))
	if shardBits > 32 {
		panic(fmt.Sprintf("cmap: Shards = %d exceeds 2^32", cfg.Shards))
	}
	if cfg.D <= 0 || cfg.D > maxD {
		panic(fmt.Sprintf("cmap: D = %d outside (0, %d]", cfg.D, maxD))
	}
	if cfg.D > 1 && cfg.D >= cfg.BucketsPerShard {
		panic(fmt.Sprintf("cmap: D = %d with %d buckets per shard", cfg.D, cfg.BucketsPerShard))
	}
	if cfg.StashPerShard == 0 {
		cfg.StashPerShard = 32
	}
	if cfg.MaxLoadFactor < 0 || cfg.MaxLoadFactor > 1 {
		panic(fmt.Sprintf("cmap: MaxLoadFactor = %v outside [0, 1]", cfg.MaxLoadFactor))
	}
	if cfg.MigrateBatch < 0 {
		panic(fmt.Sprintf("cmap: MigrateBatch = %d", cfg.MigrateBatch))
	}
	if cfg.MigrateBatch == 0 {
		cfg.MigrateBatch = 32
	}
	m := &Map[K, V]{
		shardBits:    shardBits,
		d:            cfg.D,
		sipKey:       hashes.SipKeyFromSeed(cfg.Seed),
		seed:         cfg.Seed,
		hash:         h,
		maxLoad:      cfg.MaxLoadFactor,
		migrateBatch: cfg.MigrateBatch,
		seqRead:      mchtable.SeqCapable[K]() && mchtable.SeqCapable[V](),
		shards:       make([]shard[K, V], shards),
	}
	deriver := hashes.NewDeriver(cfg.BucketsPerShard) // shared until a shard resizes
	for i := range m.shards {
		sh := &m.shards[i]
		sh.core = mchtable.NewCore[K, V](cfg.BucketsPerShard, cfg.SlotsPerBucket, cfg.StashPerShard)
		if m.seqRead {
			sh.core.EnableSeq()
		}
		sh.deriver.Store(deriver)
		sh.scratch = make([]uint32, cfg.D)
		sh.newScratch = make([]uint32, cfg.D)
		sh.candsOf = func(tag uint64) []uint32 {
			sh.deriver.Load().CandidateBins(tag, sh.scratch)
			return sh.scratch
		}
		sh.newCandsOf = func(tag uint64) []uint32 {
			sh.nextDeriver.Load().CandidateBins(tag, sh.newScratch)
			return sh.newScratch
		}
	}
	return m
}

// shardCount is the shard count a Config's Shards field builds: 0 means
// 16, and any other count rounds up to a power of two.
func shardCount(n int) int {
	if n == 0 {
		n = 16
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// digest is the map's single keyed hash evaluation per key.
//
//repro:digestsource
//repro:noalloc
func (m *Map[K, V]) digest(key K) uint64 { return m.hash(m.sipKey, key) }

// route returns the key's shard and in-shard digest — everything derived
// from one keyed hash evaluation, without touching any lock. The in-shard
// digest is also the entry's stored tag: candidate buckets for any
// geometry derive from it.
//
//repro:noalloc
func (m *Map[K, V]) route(key K) (*shard[K, V], uint64) {
	return m.routeDigest(m.digest(key))
}

// routeDigest is route from an already computed full digest — the entry
// point the snapshot loader shares with the hashed path, so reloading at
// any shard count re-splits stored digests instead of re-hashing keys.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) routeDigest(digest uint64) (*shard[K, V], uint64) {
	idx, inShard := hashes.ShardSplit(digest, m.shardBits)
	return &m.shards[idx], inShard
}

// startResizeLocked begins doubling sh. Caller holds sh.mu.
//
//repro:requires-lock
func (m *Map[K, V]) startResizeLocked(sh *shard[K, V]) {
	newBuckets := 2 * sh.core.Buckets()
	sh.nextDeriver.Store(hashes.NewDeriver(newBuckets))
	sh.core.StartResize(newBuckets)
}

// wantsResizeLocked reports whether sh has crossed the growth watermark:
// occupancy past MaxLoadFactor, or the overflow stash three-quarters
// full (stash pressure precedes rejections well below the watermark on
// unlucky shards). Caller holds sh.mu.
//
//repro:requires-lock
func (m *Map[K, V]) wantsResizeLocked(sh *shard[K, V]) bool {
	if m.maxLoad == 0 || sh.core.Resizing() {
		return false
	}
	if overWatermark(sh.core.Len(), sh.core.Capacity(), m.maxLoad) {
		return true
	}
	return 4*sh.core.StashLen() >= 3*sh.core.StashCap()
}

// overWatermark is the growth rule: a shard holding n pairs in capacity
// slots doubles once their ratio exceeds maxLoad.
func overWatermark(n, capacity int, maxLoad float64) bool {
	return float64(n)/float64(capacity) > maxLoad
}

// BucketsFor returns the buckets per shard that organic growth reaches
// once a map built from cfg holds pairs entries spread evenly over its
// shards: cfg.BucketsPerShard doubled until pairs/shards fits under
// MaxLoadFactor. A loader that knows its record count up front starts at
// this geometry and places every record once, instead of re-placing the
// table at each doubling. Stash pressure can still double a shard below
// the watermark; a load that meets it grows online, as it would without
// presizing. With growth disabled it is cfg.BucketsPerShard.
func BucketsFor(cfg Config, pairs int) int {
	b := cfg.BucketsPerShard
	if cfg.MaxLoadFactor <= 0 || b <= 0 || cfg.SlotsPerBucket <= 0 || cfg.Shards < 0 {
		return b
	}
	shards := shardCount(cfg.Shards)
	perShard := (pairs + shards - 1) / shards
	for b <= math.MaxUint32/2 && overWatermark(perShard, b*cfg.SlotsPerBucket, cfg.MaxLoadFactor) {
		b *= 2
	}
	return b
}

// migrateLocked advances sh's in-flight resize by up to n units of
// migration work (entries moved or empty old buckets swept — the bound
// keeps the lock-hold O(n)), promoting the new geometry when the backlog
// empties. Caller holds sh.mu. Returns the work performed.
//
//repro:requires-lock
//repro:digestcarried
func (m *Map[K, V]) migrateLocked(sh *shard[K, V], n int) int {
	if !sh.core.Resizing() {
		return 0
	}
	moved := sh.core.Migrate(n, sh.newCandsOf)
	if !sh.core.Resizing() { // promoted: the doubled geometry is current
		sh.deriver.Store(sh.nextDeriver.Load())
		sh.nextDeriver.Store(nil)
	}
	return moved
}

// Put stores key → val, updating in place if key is present. It reports
// whether the pair is stored; false means the insertion was rejected with
// the map unchanged. With resize disabled that happens whenever every
// candidate bucket and the shard's stash are full; with MaxLoadFactor set
// a rejection instead starts the shard's resize and retries into the
// doubled geometry, so false becomes rare but remains possible while a
// migration is already in flight and the new geometry's candidates and
// stash are themselves full (a second doubling cannot start until the
// first completes). Every Put on a resizing shard migrates up to
// MigrateBatch entries.
//
//repro:noalloc
func (m *Map[K, V]) Put(key K, val V) bool {
	digest := m.digest(key)
	if mx := m.metrics; mx != nil && digest&sampleMask == 0 {
		start := nowNanos()
		ok := m.putDigest(digest, key, val)
		mx.PutNanos.Record(nowNanos() - start)
		return ok
	}
	return m.putDigest(digest, key, val)
}

// putDigest is Put from an already computed full digest — shared by Put
// (which spends the operation's one keyed hash evaluation to get it) and
// the snapshot loader (which streams stored digests back in, re-hashing
// nothing).
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) putDigest(digest uint64, key K, val V) bool {
	var oldBuf, newBuf [maxD]uint32
	sh, tag := m.routeDigest(digest)
	oldCands := oldBuf[:m.d]
	if m.maxLoad == 0 {
		// Fixed geometry: the shared deriver is immutable, so candidate
		// expansion stays outside the lock (the pre-resize hot path).
		sh.deriver.Load().CandidateBins(tag, oldCands)
		sh.lock()
		ok := sh.core.Put(oldCands, key, val, tag)
		sh.unlock()
		return ok
	}
	sh.lock()
	sh.deriver.Load().CandidateBins(tag, oldCands)
	var ok bool
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.Load().CandidateBins(tag, newCands)
		ok = sh.core.PutDual(oldCands, newCands, key, val, tag)
	} else {
		ok = sh.core.Put(oldCands, key, val, tag)
		if !ok || m.wantsResizeLocked(sh) {
			// Watermark crossed — or the fixed geometry rejected the pair
			// outright, which forces growth regardless of occupancy.
			m.startResizeLocked(sh)
			if !ok {
				newCands := newBuf[:m.d]
				sh.nextDeriver.Load().CandidateBins(tag, newCands)
				ok = sh.core.PutDual(oldCands, newCands, key, val, tag)
			}
		}
	}
	m.migrateLocked(sh, m.migrateBatch)
	sh.unlock()
	return ok
}

// Get returns the value stored for key. For seq-capable K/V the read is
// optimistic and lock-free: it probes the shard's published bucket views
// (both geometries mid-resize, old first) with atomic word reads and
// validates the shard's seqlock generation around the probe, retrying on
// writer overlap and falling back to the read lock after seqSpins torn
// attempts. Readers therefore never block writers and never wait on a
// lock on the fast path. For pointerful K/V, Get takes the shard's read
// lock as before; either way a Get never migrates.
//
//repro:noalloc
func (m *Map[K, V]) Get(key K) (V, bool) {
	sh, tag := m.route(key)
	if mx := m.metrics; mx != nil && tag&sampleMask == 0 {
		return m.sampledGet(mx, sh, tag, key)
	}
	if m.seqRead {
		if v, ok, done := m.seqGet(sh, tag, key); done {
			return v, ok
		}
		sh.seqFallbacks.Add(1)
	}
	return m.lockedGet(sh, tag, key)
}

// seqGet is the optimistic lock-free read: snapshot the generation,
// probe wait-free, accept only if the generation never moved. done=false
// after seqSpins torn attempts sends the caller to the mutex fallback.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) seqGet(sh *shard[K, V], tag uint64, key K) (val V, ok, done bool) {
	var buf, nbuf [maxD]uint32
	for spin := 0; spin < seqSpins; spin++ {
		s := sh.seq.Load()
		if s&1 != 0 {
			continue // a mutation is in flight right now
		}
		core := sh.core
		v := core.View()
		der := sh.deriver.Load()
		if der.N() != v.Buckets() {
			continue // deriver and view from different geometries: retry
		}
		cands := buf[:m.d]
		der.CandidateBins(tag, cands)
		val, ok = core.SeqGet(v, cands, key)
		if !ok {
			// Old geometry missed; mid-resize the pair may already have
			// migrated, so chase the next core exactly like GetDual.
			if next := core.Next(); next != nil {
				nder := sh.nextDeriver.Load()
				nv := next.View()
				if nder == nil || nder.N() != nv.Buckets() {
					continue
				}
				ncands := nbuf[:m.d]
				nder.CandidateBins(tag, ncands)
				val, ok = next.SeqGet(nv, ncands, key)
			}
		}
		if sh.seq.Load() == s {
			if spin > 0 {
				sh.seqRetries.Add(uint64(spin))
			}
			return val, ok, true
		}
	}
	sh.seqRetries.Add(seqSpins)
	var zero V
	return zero, false, false
}

// lockedGet is the classic read-locked Get — the only read path for
// pointerful K/V, and the fallback when seqGet keeps colliding with
// writers.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) lockedGet(sh *shard[K, V], tag uint64, key K) (V, bool) {
	var oldBuf, newBuf [maxD]uint32
	oldCands := oldBuf[:m.d]
	if m.maxLoad == 0 {
		sh.deriver.Load().CandidateBins(tag, oldCands) // immutable geometry: no lock needed
		sh.mu.RLock()
		v, ok := sh.core.Get(oldCands, key, tag)
		sh.mu.RUnlock()
		return v, ok
	}
	sh.mu.RLock()
	sh.deriver.Load().CandidateBins(tag, oldCands)
	var v V
	var ok bool
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.Load().CandidateBins(tag, newCands)
		v, ok = sh.core.GetDual(oldCands, newCands, key, tag)
	} else {
		v, ok = sh.core.Get(oldCands, key, tag)
	}
	sh.mu.RUnlock()
	return v, ok
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot drains the shard's stash back into the freed bucket, as in the
// single-threaded table. Like Put, a Delete migrates up to MigrateBatch
// entries of an in-flight resize.
//
//repro:noalloc
func (m *Map[K, V]) Delete(key K) bool {
	var oldBuf, newBuf [maxD]uint32
	sh, tag := m.route(key)
	oldCands := oldBuf[:m.d]
	if m.maxLoad == 0 {
		sh.deriver.Load().CandidateBins(tag, oldCands) // immutable geometry: no lock needed
		sh.lock()
		ok := sh.core.Delete(oldCands, key, tag, sh.candsOf)
		sh.unlock()
		return ok
	}
	sh.lock()
	sh.deriver.Load().CandidateBins(tag, oldCands)
	var ok bool
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.Load().CandidateBins(tag, newCands)
		ok = sh.core.DeleteDual(oldCands, newCands, key, tag, sh.newCandsOf)
	} else {
		ok = sh.core.Delete(oldCands, key, tag, sh.candsOf)
	}
	m.migrateLocked(sh, m.migrateBatch)
	sh.unlock()
	return ok
}

// MigrateStep advances every shard's in-flight resize by up to n units
// of migration work per shard (entries moved or empty old buckets swept),
// returning the total work performed (0 when no shard has anything left
// to migrate). Piggybacked migration on Put and Delete already drives
// resizes to completion under write traffic; MigrateStep is for a
// background drainer (see cmd/loadgen) or for finishing a migration on a
// now-idle map.
func (m *Map[K, V]) MigrateStep(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("cmap: MigrateStep n = %d", n))
	}
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		// Peek with an atomic load so idle shards cost nothing; a resize
		// finishing between the peek and the lock just makes migrateLocked
		// a no-op.
		if !sh.core.Resizing() {
			continue
		}
		sh.lock()
		total += m.migrateLocked(sh, n)
		sh.unlock()
	}
	return total
}

// Shards returns the shard count (a power of two).
func (m *Map[K, V]) Shards() int { return len(m.shards) }

// D returns the number of candidate buckets per key.
func (m *Map[K, V]) D() int { return m.d }

// Len returns the number of stored pairs (including stashed ones). Each
// shard's count is captured under the seqlock protocol (a validated
// lock-free read, falling back to the read lock under write churn or for
// pointerful K/V), so per-shard counts are exact while the cross-shard
// total remains per-shard-consistent: concurrent writers may move the
// total while it accumulates.
func (m *Map[K, V]) Len() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		if m.seqRead {
			if n, ok := m.seqShardLen(sh); ok {
				total += n
				continue
			}
		}
		sh.mu.RLock()
		total += sh.core.Len()
		sh.mu.RUnlock()
	}
	return total
}

// seqShardLen reads one shard's pair count under seqlock validation.
func (m *Map[K, V]) seqShardLen(sh *shard[K, V]) (int, bool) {
	for spin := 0; spin < seqSpins; spin++ {
		s := sh.seq.Load()
		if s&1 != 0 {
			continue
		}
		n := sh.core.Len() // atomic size loads across both geometries
		if sh.seq.Load() == s {
			return n, true
		}
	}
	return 0, false
}

// Stats is the common occupancy/overflow snapshot aggregated across
// shards — the monitoring view: overall fill, stash pressure, shard skew,
// resize progress, and the bucket-load histogram the paper's tables
// predict. It is an alias of the shared container.Stats, so every
// container family in the library reports through one type.
type Stats = container.Stats

// Stats gathers the snapshot. Each shard's figures — length, capacity,
// stash depth, resize progress and its bucket-load histogram — are
// captured under the seqlock protocol: a validated lock-free read of
// that shard at one instant, even mid-migration (the read-lock fallback
// covers write churn and pointerful K/V, and is every bit as
// consistent). The aggregate is therefore per-shard-consistent: each
// shard's numbers are internally coherent, while shards are snapshotted
// one after another, so concurrent writers may shift the cross-shard
// totals as they accumulate — the inherent limit of a lock-per-shard
// design, now with torn *within-shard* views (the old sequential-RLock
// reader could see one geometry's buckets but not yet its stash)
// engineered away.
func (m *Map[K, V]) Stats() Stats {
	st := Stats{Shards: len(m.shards)}
	var snap shardSnap
	for i := range m.shards {
		sh := &m.shards[i]
		// Monotone health counters, read directly: they are not part of
		// the shard's seqlock-protected geometry snapshot.
		st.SeqRetries += int64(sh.seqRetries.Load())
		st.SeqFallbacks += int64(sh.seqFallbacks.Load())
		m.shardStats(sh, &snap)
		st.Len += snap.len
		st.Capacity += snap.capacity
		st.Stashed += snap.stashed
		st.Resizes += snap.resizes
		st.Migrating += snap.migrating
		for load, buckets := range snap.loads {
			st.BucketLoads.AddN(load, buckets)
		}
		if i == 0 || snap.len < st.MinShardLen {
			st.MinShardLen = snap.len
		}
		if snap.len > st.MaxShardLen {
			st.MaxShardLen = snap.len
		}
	}
	if st.Capacity > 0 {
		st.Occupancy = float64(st.Len) / float64(st.Capacity)
	}
	return st
}

// shardSnap is one shard's consistent Stats contribution; loads[l] holds
// the number of buckets (across both geometries mid-resize) with l
// occupied slots. The buffer is reused across shards.
type shardSnap struct {
	len, capacity, stashed, resizes, migrating int
	loads                                      []int64
}

// shardStats captures one shard's snapshot into snap, preferring the
// validated seqlock read and falling back to the read lock.
func (m *Map[K, V]) shardStats(sh *shard[K, V], snap *shardSnap) {
	if m.seqRead {
		for spin := 0; spin < seqSpins; spin++ {
			s := sh.seq.Load()
			if s&1 != 0 {
				continue
			}
			core := sh.core
			v := core.View()
			snap.reset(v.Slots())
			snap.len = core.Len()
			snap.stashed = core.StashLen()
			snap.resizes = core.Resizes()
			snap.migrating = core.Pending()
			snap.capacity = v.Buckets() * v.Slots()
			v.AddLoads(snap.loads)
			if next := core.Next(); next != nil {
				nv := next.View()
				snap.capacity += nv.Buckets() * nv.Slots()
				nv.AddLoads(snap.loads)
			}
			if sh.seq.Load() == s {
				return
			}
		}
	}
	sh.mu.RLock()
	snap.reset(sh.core.SlotsPerBucket())
	snap.len = sh.core.Len()
	snap.capacity = sh.core.Capacity()
	snap.stashed = sh.core.StashLen()
	snap.resizes = sh.core.Resizes()
	snap.migrating = sh.core.Pending()
	var h container.Stats
	sh.core.AddBucketLoads(&h.BucketLoads)
	for load := 0; load <= h.BucketLoads.MaxValue() && load < len(snap.loads); load++ {
		snap.loads[load] += h.BucketLoads.Count(load)
	}
	sh.mu.RUnlock()
}

// reset clears the snapshot for a geometry with the given slots per
// bucket (loads needs slots+1 entries: loads 0..slots).
func (s *shardSnap) reset(slots int) {
	s.len, s.capacity, s.stashed, s.resizes, s.migrating = 0, 0, 0, 0, 0
	if cap(s.loads) < slots+1 {
		s.loads = make([]int64, slots+1)
	}
	s.loads = s.loads[:slots+1]
	for i := range s.loads {
		s.loads[i] = 0
	}
}
