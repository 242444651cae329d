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
// Get and GetBatch never take the shard lock on their fast path, for
// every key and value type the map accepts. mchtable.Core's type rule
// makes every slot pointer-free: a key or value type is either
// pointer-free with a size that is a multiple of 4 bytes (uint64s, fixed
// arrays, packet 5-tuple structs), stored inline in the slot arrays, or
// a string kind (or []byte, for values), stored in the shard geometry's
// append-only byte arena, named by a 64-bit ref in the slot. Any other
// type panics in the constructor.
//
// Each shard carries a sequence counter that writers bump to odd on
// entering a mutation and back to even on leaving; a reader snapshots
// the counter, probes the shard's published bucket views and stash with
// atomic reads (both geometries mid-resize, old first), and accepts the
// result only if the counter is still the same even value — anything
// else means a writer overlapped the probe and the value may be torn, so
// the reader retries, falling back to the read lock after a few spins so
// readers never starve under write churn. The fallback runs the same
// probe, with writers excluded. Readers therefore wait on no lock, block
// no writer, and cost writers two uncontended atomic increments; see
// internal/mchtable's core_seq.go for why both sides use atomics (Go's
// memory model, unlike a C seqlock's, does not forgive torn plain reads
// even when discarded).
//
// The probe loads each slot's ref, which carries 16 bits of the pair's
// tag, compares those bits before anything else, and reads a key's arena
// bytes only in a slot whose tag bits match. An arena record is written
// before the ref naming it is published, and never written again, so a
// reader that loads a stale ref reads intact bytes that the generation
// check then rejects. A string or []byte returned by Get, GetBatch or
// Range is a view of its record: it stays valid, and byte-identical, for
// as long as the caller holds it — across overwrites, deletes, doublings
// and rebuilds — and a returned []byte must not be written. Put copies
// string and []byte arguments into the arena, so a caller may reuse
// their memory as soon as Put returns.
//
// Overwrites and deletes leave dead record bytes behind. A shard whose
// current geometry holds more dead arena bytes than live ones (see
// mchtable.Core.NeedsRebuild) starts a same-size rebuild, migrated like
// a doubling, MigrateBatch entries per write; every doubling compacts
// the same way. Stats().Resizes counts rebuilds with the doublings.
// Like a doubling, a rebuild never stalls on stash headroom: a pair whose
// candidate buckets are all full in the rebuilt geometry goes to its
// stash even past StashPerShard. With MaxLoadFactor set, that stash
// pressure doubles the shard at its next write; with resize disabled the
// stash stays overfull until deletes drain it, and meanwhile a new key
// whose candidate buckets are full is rejected.
//
// # Online incremental resize
//
// With MaxLoadFactor set, a shard of N buckets whose occupancy crosses
// its watermark, min(MaxLoadFactor, W(N)) — the load at which the capped
// fluid limit predicts a quarter of the stash-pressure trigger (see
// growth.go) — allocates a core of twice the buckets (for a power of
// two; otherwise the smallest prime at least 2N) and migrates entries
// over in MigrateBatch-sized steps piggybacked on subsequent Put and
// Delete calls (or driven externally through MigrateStep). Stash
// pressure and a rejected Put grow a shard too, as counted backstops
// (Stats.BackstopResizes). Each entry's in-shard digest is stored
// alongside it, so migration re-derives candidates for the grown
// geometry from the same single hash evaluation — resize is a pure
// re-placement, no key is ever re-hashed, and the one-hash discipline
// survives every doubling (double hashing behaves fully-random at any
// table shape, per the follow-up analysis). Mid-migration, reads consult
// the old geometry first and the new one second, so no key is ever
// unreachable; writes land in the new geometry, moving a
// still-old-resident key across as a free migration step. Shards resize
// independently: one shard's migration never blocks another shard's
// traffic, and a Get never performs migration work — a seqlock Get
// proceeds in parallel with an in-flight batch step and retries only if
// the step overlaps its probe, while a fallback (locked) read can wait
// behind one, bounded by MigrateBatch.
//
// The keyed hash evaluation always happens outside the shard lock. The
// cheap geometry-dependent candidate expansion happens under the lock on
// the write path, because a doubling or rebuild may start at any write
// (the recovery loader derives a window's candidates ahead of placing
// them, and the put body derives again under the lock if the shard's
// geometry changed since); seqlock readers instead validate that their
// deriver and bucket view describe the same geometry and retry on
// mismatch, keeping the whole read path lock-free.
package cmap

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/mchtable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// maxD bounds the candidate count so per-call candidate sets fit in a
// stack array (no allocation, no shared scratch).
const maxD = 16

// defaultStash is the per-shard stash capacity a zero
// Config.StashPerShard means.
const defaultStash = 32

// seqSpins is how many torn-read retries an optimistic reader attempts
// before falling back to the shard's read lock. Retries are only caused
// by writer overlap on the same shard, so a couple of spins almost
// always suffice; the fallback bounds reader latency under pathological
// write churn instead of spinning forever.
const seqSpins = 8

// Config declares a sharded map.
type Config struct {
	Shards          int    // shard count, rounded up to a power of two; 0 means 16
	BucketsPerShard int    // initial buckets per shard of an empty map (required, > 0); BucketsFor sizes a loaded one
	SlotsPerBucket  int    // slots per bucket (required, > 0)
	D               int    // candidate buckets per key (required, 0 < D <= 16)
	Seed            uint64 // hash key material
	StashPerShard   int    // per-shard overflow stash capacity; 0 means 32

	// MaxLoadFactor enables online resize and caps its watermark: a
	// shard of N buckets whose occupancy (stored pairs, stash included,
	// over slot capacity) exceeds min(MaxLoadFactor, W(N)) doubles its
	// bucket count and migrates incrementally. W(N) is the highest load
	// at which the capped fluid limit predicts the shard stashes a
	// quarter of its stash-pressure trigger (see growth.go); it falls as
	// N grows, because the stash holds a fixed count while overflow grows
	// with capacity. 0 disables resize (the map is fixed-capacity and
	// rejects overflow, the pre-resize behaviour; same-size arena
	// rebuilds still run, see the package doc); otherwise it must lie in
	// (0, 1].
	MaxLoadFactor float64
	// MigrateBatch is the number of entries each Put or Delete migrates
	// as a piggybacked resize or rebuild step; 0 means 32.
	MigrateBatch int
}

// shard is one lockable placement core plus its geometry. seq is the
// seqlock generation counter: odd exactly while a mutation is in flight
// (see lock/unlock), read by the lock-free Get path. The derivers are
// atomic pointers because lock-free readers chase them while a promotion
// swaps them; deriver matches the core's current bucket count,
// nextDeriver the doubled geometry while a resize is in flight. candsOf
// is the core's drain and migrate derivation: it derives a stored tag's
// candidates for the geometry entries move into, the next one while a
// resize is in flight and the current one otherwise. The trailing pad
// keeps adjacent shards' hot words off one cache line, so uncontended
// shards do not false-share.
type shard[K comparable, V any] struct {
	//repro:lockclass cmap-shard 30
	mu          sync.RWMutex
	seq         atomic.Uint64
	core        *mchtable.Core[K, V] // set once at construction; the pointer itself never changes
	deriver     atomic.Pointer[hashes.Deriver]
	nextDeriver atomic.Pointer[hashes.Deriver]
	candsOf     func(tag uint64) []uint32
	scratch     []uint32 // candsOf target; guarded by mu (write side)
	limit       int      // pairs the settled geometry holds before it grows; guarded by mu

	// Seqlock read-path health, surfaced through Stats: torn or
	// overlapped optimistic attempts that retried, and reads that gave
	// up spinning (or snapshotted mid-mutation in GetBatch) and took
	// the lock. Bumped only off the fast path — a clean first-attempt
	// read touches neither — so counting costs the steady state
	// nothing.
	seqRetries   atomic.Uint64
	seqFallbacks atomic.Uint64
	// backstops counts doublings that stash pressure or a rejected Put
	// started before the shard reached its watermark: each one means the
	// shard left the fluid limit's prediction.
	backstops atomic.Uint64

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
	growth       *growthRule // nil when resize is disabled (MaxLoadFactor 0)
	migrateBatch int
	metrics      *Metrics // optional latency/probe instrumentation; nil = uninstrumented
	shards       []shard[K, V]
	mgetPool     sync.Pool // *mgetScratch[K, V], reused across GetBatch calls
}

// NewKeyed returns an empty typed map whose single keyed hash evaluation
// per operation is h. It panics on invalid configuration, a nil hasher,
// or a K or V that breaks mchtable.Core's type rule (see the package
// doc's "Seqlock reads").
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
		cfg.StashPerShard = defaultStash
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
		migrateBatch: cfg.MigrateBatch,
		shards:       make([]shard[K, V], shards),
	}
	if cfg.MaxLoadFactor > 0 {
		m.growth = newGrowthRule(cfg)
	}
	deriver := hashes.NewDeriver(cfg.BucketsPerShard) // shared until a shard resizes
	for i := range m.shards {
		sh := &m.shards[i]
		sh.core = mchtable.NewCore[K, V](cfg.BucketsPerShard, cfg.SlotsPerBucket, cfg.StashPerShard)
		sh.deriver.Store(deriver)
		m.setLimit(sh)
		sh.scratch = make([]uint32, cfg.D)
		sh.candsOf = func(tag uint64) []uint32 {
			der := sh.nextDeriver.Load()
			if der == nil {
				der = sh.deriver.Load()
			}
			der.CandidateBins(tag, sh.scratch)
			return sh.scratch
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
// point the recovery loader shares with the hashed path, so reloading at
// any shard count re-splits stored digests instead of re-hashing keys.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) routeDigest(digest uint64) (*shard[K, V], uint64) {
	idx, inShard := hashes.ShardSplit(digest, m.shardBits)
	return &m.shards[idx], inShard
}

// startResizeLocked begins migrating sh to newBuckets buckets: a
// doubling, or at the current count a rebuild. Caller holds sh.mu.
//
//repro:requires-lock
func (m *Map[K, V]) startResizeLocked(sh *shard[K, V], newBuckets int) {
	der := sh.deriver.Load()
	if newBuckets == der.N() {
		sh.nextDeriver.Store(der)
		sh.core.StartRebuild()
		return
	}
	sh.nextDeriver.Store(hashes.NewDeriver(newBuckets))
	sh.core.StartResize(newBuckets)
}

// setLimit sets sh's growth limit for its current geometry: the pair
// count past which the shard doubles, so the per-write check is one
// integer compare. Caller holds sh.mu or owns sh exclusively.
func (m *Map[K, V]) setLimit(sh *shard[K, V]) {
	if m.growth != nil {
		sh.limit = m.growth.limit(sh.core.Buckets())
	}
}

// resizeTargetLocked returns the bucket count sh should migrate to after
// a write on a settled geometry, or 0 to stay. With growth enabled, a
// shard that holds more pairs than its geometry's limit, ⌊W(N)·N·slots⌋
// (see growthRule), grows; it also grows when its stash reaches the
// stash-pressure trigger or a Put is rejected. Those two are backstops:
// at the watermark the fluid limit predicts a quarter of the trigger, so
// each firing is counted as a shard that left the prediction (a bad seed
// or an adversarial key set). Otherwise an arena holding more dead bytes
// than live ones rebuilds the shard at the same size. Caller holds
// sh.mu.
//
//repro:requires-lock
func (m *Map[K, V]) resizeTargetLocked(sh *shard[K, V], rejected bool) int {
	c := sh.core
	switch {
	case c.Resizing():
		return 0
	case m.growth != nil && c.Len() > sh.limit:
		return grownBuckets(c.Buckets())
	case m.growth != nil && (rejected || c.StashLen() >= stashTrigger(c.StashCap())):
		sh.backstops.Add(1)
		return grownBuckets(c.Buckets())
	case c.NeedsRebuild():
		return c.Buckets()
	}
	return 0
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
	moved := sh.core.Migrate(n, sh.candsOf)
	if !sh.core.Resizing() { // promoted: the doubled geometry is current
		sh.deriver.Store(sh.nextDeriver.Load())
		sh.nextDeriver.Store(nil)
		m.setLimit(sh)
	}
	return moved
}

// Put stores key → val, updating in place if key is present. It reports
// whether the pair is stored; false means the insertion was rejected with
// the map unchanged. With resize disabled that happens whenever every
// candidate bucket and the shard's stash are full — mid-rebuild, those of
// the geometry being rebuilt into, whose stash the rebuild may have
// overfilled (see the package doc). With MaxLoadFactor set a rejection
// instead starts the shard's resize and retries into the doubled
// geometry, so false becomes rare but remains possible while a migration
// is already in flight and the new geometry's candidates and stash are
// themselves full (a second doubling cannot start until the first
// completes). A rejection never retries into a rebuild. Every Put on a
// resizing shard migrates up to MigrateBatch entries.
//
//repro:noalloc
func (m *Map[K, V]) Put(key K, val V) bool {
	return PutDigest(m, m.digest(key), key, val)
}

// Digest returns m's keyed digest of key: the one hash evaluation an
// operation spends, which PutDigest and DeleteDigest then carry. A
// caller that needs the digest for its own bookkeeping as well — the
// durable map picks its write-ordering stripe from it — hashes once and
// passes it on. It is a function rather than a method so that the
// method set of the public Map stays as it is.
//
//repro:digestsource
//repro:noalloc
func Digest[K comparable, V any](m *Map[K, V], key K) uint64 { return m.digest(key) }

// PutDigest is m.Put(key, val) for a key whose digest the caller already
// computed with Digest — it must be Digest(m, key).
//
//repro:digestcarried
//repro:noalloc
func PutDigest[K comparable, V any](m *Map[K, V], digest uint64, key K, val V) bool {
	var buf [maxD]uint32
	sh, tag := m.routeDigest(digest)
	if mx := m.metrics; mx != nil && digest&sampleMask == 0 {
		start := obs.NowNanos()
		ok := m.putRouted(sh, tag, nil, buf[:m.d], key, val)
		mx.PutNanos.Record(obs.NowNanos() - start)
		return ok
	}
	return m.putRouted(sh, tag, nil, buf[:m.d], key, val)
}

// putRouted stores key → val in sh, key's shard, where key's tag is tag:
// Put's one placement, the put body putLocked under the shard lock.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) putRouted(sh *shard[K, V], tag uint64, der *hashes.Deriver, cands []uint32, key K, val V) bool {
	sh.lock()
	ok := m.putLocked(sh, tag, der, cands, key, val)
	sh.unlock()
	return ok
}

// putLocked is the one put body, shared by Put and the recovery loader,
// which places a window's records of one shard under one lock. cands
// holds d candidates that der derived for tag; a nil der derived none.
// It derives them with the shard's deriver unless that is der: the
// loader plans a window of records' candidates before placing any, and
// a placement in between may have promoted the shard to a new geometry.
// Mid-resize it derives the next geometry's candidates too. Caller
// holds sh.mu.
//
//repro:requires-lock
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) putLocked(sh *shard[K, V], tag uint64, der *hashes.Deriver, cands []uint32, key K, val V) bool {
	var nextBuf [maxD]uint32
	if cur := sh.deriver.Load(); cur != der {
		cur.CandidateBins(tag, cands)
	}
	ok := sh.core.Put(cands, sh.nextCands(tag, nextBuf[:m.d]), key, val, tag)
	if n := m.resizeTargetLocked(sh, !ok); n > 0 {
		doubling := n != sh.core.Buckets()
		m.startResizeLocked(sh, n)
		if !ok && doubling {
			ok = sh.core.Put(cands, sh.nextCands(tag, nextBuf[:m.d]), key, val, tag)
		}
	}
	m.migrateLocked(sh, m.migrateBatch)
	return ok
}

// nextCands derives tag's candidates for sh's next geometry into buf and
// returns them, or returns nil while sh is settled. Caller holds sh.mu.
//
//repro:noalloc
func (sh *shard[K, V]) nextCands(tag uint64, buf []uint32) []uint32 {
	der := sh.nextDeriver.Load()
	if der == nil {
		return nil
	}
	der.CandidateBins(tag, buf)
	return buf
}

// Get returns the value stored for key. The read is optimistic and
// lock-free: it probes the shard's published bucket views (both
// geometries mid-resize, old first) with atomic reads and validates the
// shard's seqlock generation around the probe, retrying on writer
// overlap and falling back to the read lock after seqSpins torn
// attempts. Readers therefore never block writers and never wait on a
// lock on the fast path, and a Get never migrates. A string or []byte
// result is a view of the map's arena (see the package doc).
//
//repro:noalloc
func (m *Map[K, V]) Get(key K) (V, bool) {
	sh, tag := m.route(key)
	if mx := m.metrics; mx != nil && tag&sampleMask == 0 {
		return m.sampledGet(mx, sh, tag, key)
	}
	v, _, ok := m.getRouted(sh, tag, key)
	return v, ok
}

// getRouted is Get after routing: the seqlock probe, then the locked
// fallback if it spins out. It reports the probe depth as probe does.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) getRouted(sh *shard[K, V], tag uint64, key K) (V, int, bool) {
	if v, depth, ok, done := m.seqGet(sh, tag, key); done {
		return v, depth, ok
	}
	sh.seqFallbacks.Add(1)
	return m.lockedGet(sh, tag, key)
}

// seqGet is the optimistic lock-free read: snapshot the generation, plan
// and resolve wait-free, accept only if the generation never moved.
// done=false after seqSpins torn attempts sends the caller to the locked
// fallback.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) seqGet(sh *shard[K, V], tag uint64, key K) (val V, depth int, ok, done bool) {
	var buf, nextBuf [maxD]uint32
	cands, nextCands := buf[:m.d], nextBuf[:m.d]
	for spin := 0; spin < seqSpins; spin++ {
		s := sh.seq.Load()
		if s&1 != 0 {
			continue // a mutation is in flight right now
		}
		p := m.plan(sh, tag, cands, nextCands)
		if p.v == nil {
			continue
		}
		val, depth, ok = m.resolve(sh, &p, cands, nextCands, key, tag)
		if sh.seq.Load() == s {
			if spin > 0 {
				sh.seqRetries.Add(uint64(spin))
			}
			return val, depth, ok, true
		}
	}
	sh.seqRetries.Add(seqSpins)
	var zero V
	return zero, -1, false, false
}

// lockedGet is the read-locked lookup: the fallback when the lock-free
// read keeps colliding with writers. It plans and resolves as seqGet
// does, and reports the probe depth like getRouted.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) lockedGet(sh *shard[K, V], tag uint64, key K) (V, int, bool) {
	var buf, nextBuf [maxD]uint32
	cands, nextCands := buf[:m.d], nextBuf[:m.d]
	sh.mu.RLock()
	p := m.plan(sh, tag, cands, nextCands) // writers excluded: the geometries agree
	v, depth, ok := m.resolve(sh, &p, cands, nextCands, key, tag)
	sh.mu.RUnlock()
	return v, depth, ok
}

// readPlan is one key's planned lookup in a shard: the current
// geometry's view and, mid-resize, the next core and its view, each
// matched to the deriver the key's candidates for it came from. A nil v
// means no plan: a deriver and the view it must match came from
// different geometries, which only an overlapping writer can cause.
type readPlan[K comparable, V any] struct {
	v    *mchtable.SeqView[K, V]
	next *mchtable.Core[K, V] // captured: a promotion may nil core.Next before resolve
	nv   *mchtable.SeqView[K, V]
}

// plan is the first half of every lookup: it loads sh's published view
// and deriver, checks that they describe one geometry, and derives tag's
// candidates for it into cands — and, mid-resize, does the same for the
// next geometry into nextCands. Every load is atomic, so plan runs
// lock-free under the caller's generation check, or read-locked.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) plan(sh *shard[K, V], tag uint64, cands, nextCands []uint32) readPlan[K, V] {
	core := sh.core
	v := core.View()
	der := sh.deriver.Load()
	if der.N() != v.Buckets() {
		return readPlan[K, V]{}
	}
	der.CandidateBins(tag, cands)
	next := core.Next()
	if next == nil {
		return readPlan[K, V]{v: v}
	}
	nder := sh.nextDeriver.Load()
	nv := next.View()
	if nder == nil || nder.N() != nv.Buckets() {
		return readPlan[K, V]{}
	}
	nder.CandidateBins(tag, nextCands)
	return readPlan[K, V]{v: v, next: next, nv: nv}
}

// resolve is the second half: it SeqGets key in p's current view and, on
// a miss mid-resize, in the next geometry, whose depths are offset past
// the old probe sequence (d+1) so the depth histogram reflects the total
// buckets examined. It reports the probe depth as mchtable.Core.SeqGet
// does; the result counts only if the caller's generation check (or read
// lock) covers plan and resolve both.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) resolve(sh *shard[K, V], p *readPlan[K, V], cands, nextCands []uint32, key K, tag uint64) (V, int, bool) {
	val, depth, ok := sh.core.SeqGet(p.v, cands, key, tag)
	if ok || p.next == nil {
		return val, depth, ok
	}
	if val, depth, ok = p.next.SeqGet(p.nv, nextCands, key, tag); ok {
		depth += m.d + 1
	}
	return val, depth, ok
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot drains the shard's stash back into the freed bucket, as in the
// single-threaded table. Like Put, a Delete migrates up to MigrateBatch
// entries of an in-flight resize.
//
//repro:noalloc
func (m *Map[K, V]) Delete(key K) bool { return DeleteDigest(m, m.digest(key), key) }

// DeleteDigest is m.Delete(key) for a key whose digest the caller
// already computed with Digest — it must be Digest(m, key).
//
//repro:digestcarried
//repro:noalloc
func DeleteDigest[K comparable, V any](m *Map[K, V], digest uint64, key K) bool {
	sh, tag := m.routeDigest(digest)
	sh.lock()
	ok := m.deleteLocked(sh, tag, key)
	sh.unlock()
	return ok
}

// deleteLocked is the one delete body, shared by Delete and the recovery
// loader: it removes key from sh, key's shard, where key's tag is tag.
// Caller holds sh.mu.
//
//repro:requires-lock
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) deleteLocked(sh *shard[K, V], tag uint64, key K) bool {
	var buf, nextBuf [maxD]uint32
	cands := buf[:m.d]
	sh.deriver.Load().CandidateBins(tag, cands)
	ok := sh.core.Delete(cands, sh.nextCands(tag, nextBuf[:m.d]), key, tag, sh.candsOf)
	if n := m.resizeTargetLocked(sh, false); n > 0 {
		m.startResizeLocked(sh, n)
	}
	m.migrateLocked(sh, m.migrateBatch)
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
// shard's count is captured under the seqlock protocol (see readStable),
// so per-shard counts are exact while the cross-shard total remains
// per-shard-consistent: concurrent writers may move the total while it
// accumulates.
func (m *Map[K, V]) Len() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		var n int
		sh.readStable(func() { n = sh.core.Len() }) // atomic size loads across both geometries
		total += n
	}
	return total
}

// readStable runs body, which reads sh's state through atomic loads only,
// until one run lies inside a single even generation: a validated
// lock-free read. After seqSpins torn attempts it runs body once more
// under the read lock, so readers never starve under write churn. body
// may run several times, so it must overwrite what it computes, never
// accumulate it. Unlike a Get, these reads count no retries or
// fallbacks.
func (sh *shard[K, V]) readStable(body func()) {
	for spin := 0; spin < seqSpins; spin++ {
		s := sh.seq.Load()
		if s&1 != 0 {
			continue
		}
		body()
		if sh.seq.Load() == s {
			return
		}
	}
	sh.mu.RLock()
	body()
	sh.mu.RUnlock()
}

// Stats is the occupancy/overflow snapshot aggregated across shards —
// the monitoring view: overall fill, stash pressure, shard skew, resize
// progress, and the bucket-load histogram the paper's tables predict.
type Stats struct {
	Shards      int        // shard count
	Len         int        // stored pairs, stash included
	Capacity    int        // total slot capacity (both geometries mid-resize)
	Stashed     int        // overflow-stashed pairs
	Occupancy   float64    // Len / Capacity
	MinShardLen int        // least-loaded shard's pair count
	MaxShardLen int        // most-loaded shard's pair count
	Resizes     int        // completed online resizes, including same-size rebuilds
	Migrating   int        // entries still awaiting migration in resizing shards
	BucketLoads stats.Hist // occupied-slots-per-bucket histogram

	// BackstopResizes counts the resizes that stash pressure or a
	// rejected Put started before a shard reached its watermark (see
	// Config.MaxLoadFactor): nonzero means a shard left the fluid
	// limit's prediction, under a bad seed or adversarial keys.
	BackstopResizes int

	// Seqlock read-path health: cumulative torn/overlapped optimistic
	// read attempts that were retried, and reads that exhausted their
	// spin budget (or snapshotted mid-mutation in a batch) and fell back
	// to the shard lock. A nonzero fallback rate under a read-mostly
	// workload means writers are starving the lock-free path.
	SeqRetries   int64
	SeqFallbacks int64

	// ArenaBytes is the bytes allocated in the byte arenas that hold
	// string-kind keys and values and []byte values out of line (both
	// geometries mid-resize; zero when K and V are stored inline). The
	// map's memory is about its slot bytes times Capacity, plus
	// ArenaBytes.
	ArenaBytes int64
}

// Stats gathers the snapshot. Each shard's figures — length, capacity,
// stash depth, resize progress and its bucket-load histogram — are
// captured by one body under the seqlock protocol (see readStable): the
// shard at one instant, even mid-migration. The aggregate is therefore
// per-shard-consistent: shards are snapshotted one after another, so
// concurrent writers may shift the cross-shard totals as they accumulate
// — the inherent limit of a lock-per-shard design.
func (m *Map[K, V]) Stats() Stats {
	st := Stats{Shards: len(m.shards)}
	var snap shardSnap
	for i := range m.shards {
		sh := &m.shards[i]
		// Monotone health counters, read directly: they are not part of
		// the shard's seqlock-protected geometry snapshot.
		st.SeqRetries += int64(sh.seqRetries.Load())
		st.SeqFallbacks += int64(sh.seqFallbacks.Load())
		st.BackstopResizes += int(sh.backstops.Load())
		m.shardStats(sh, &snap)
		st.Len += snap.len
		st.Capacity += snap.capacity
		st.Stashed += snap.stashed
		st.Resizes += snap.resizes
		st.Migrating += snap.migrating
		st.ArenaBytes += snap.arena
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
	arena                                      int64
	loads                                      []int64
}

// shardStats captures one shard's snapshot into snap.
func (m *Map[K, V]) shardStats(sh *shard[K, V], snap *shardSnap) {
	sh.readStable(func() {
		core := sh.core
		v := core.View()
		snap.reset(v.Slots())
		snap.len = core.Len()
		snap.stashed = core.StashLen()
		snap.resizes = core.Resizes()
		snap.migrating = core.Pending()
		snap.capacity = v.Buckets() * v.Slots()
		snap.arena = v.ArenaBytes()
		v.AddLoads(snap.loads)
		if next := core.Next(); next != nil {
			nv := next.View()
			snap.capacity += nv.Buckets() * nv.Slots()
			snap.arena += nv.ArenaBytes()
			nv.AddLoads(snap.loads)
		}
	})
}

// reset clears the snapshot for a geometry with the given slots per
// bucket (loads needs slots+1 entries: loads 0..slots).
func (s *shardSnap) reset(slots int) {
	s.len, s.capacity, s.stashed, s.resizes, s.migrating, s.arena = 0, 0, 0, 0, 0, 0
	if cap(s.loads) < slots+1 {
		s.loads = make([]int64, slots+1)
	}
	s.loads = s.loads[:slots+1]
	for i := range s.loads {
		s.loads[i] = 0
	}
}
