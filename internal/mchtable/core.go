package mchtable

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/stats"
)

// stashEntry is one overflowed pair plus the tag its candidates re-derive
// from.
type stashEntry[K comparable, V any] struct {
	key K
	val V
	tag uint64
}

// stashBlock is the stash storage cell: a fixed backing array plus the
// atomic live count. The arr slice header is immutable once the block is
// published through Core.stash — growth builds a bigger block off to the
// side and swaps the pointer — so seq-mode readers can walk arr[:n]
// without a header tear, and n never exceeds len(arr) of the same block.
type stashBlock[K comparable, V any] struct {
	n   atomic.Int32
	arr []stashEntry[K, V]
}

// Core is the bucket/stash placement engine of the multiple-choice hash
// table: fixed-slot buckets, least-loaded placement over caller-supplied
// candidate buckets, and an overflow stash drained back into buckets as
// deletes free slots. It is hashing-agnostic — callers derive each key's
// candidate buckets themselves — and generic over the stored key and
// value types, so the single-threaded Table, the typed Map and the locked
// shards of internal/cmap all share one placement implementation.
//
// Every stored pair carries an opaque 64-bit tag from which the caller can
// re-derive the pair's candidate buckets without touching the key again:
// internal/cmap stores the in-shard SipHash digest (so candidates for a
// new geometry come from the same single hash evaluation, the paper's
// one-hash discipline), while the uint64 Table simply stores the key.
// Tags are what make online resize a pure re-placement: Migrate
// re-derives candidates for the doubled geometry from stored tags, never
// re-hashing user keys. They also filter probes: every locked lookup
// takes the key's tag alongside the key, and for key types that hold
// pointers compares a slot's stored tag before its key, so a string key
// is dereferenced only in the slot whose tag matches. (A pointer-free key
// compares in place, where the tag would only add a load.) The tag is a
// filter, never an identity — equal tags still compare keys.
//
// A Core optionally resizes online: StartResize allocates a second Core
// with a different bucket count, Migrate moves entries across in small
// batches, and the *Dual operations keep every key reachable mid-migration
// by consulting the old geometry first and the new one second. When the
// old side empties, the new Core is promoted in place — the *Core pointer
// held by callers keeps working across the hand-off.
//
// The stash is insertion-ordered so that drain and migration order — and
// therefore placement — is fully deterministic for a fixed op sequence.
//
// Mutating a Core still requires external exclusion (internal/cmap wraps
// each shard's core in a lock). What changed for the seqlock read path is
// the *read* side: with EnableSeq, every reader-visible word is written
// with sync/atomic stores, a SeqView of the bucket arrays is published
// through an atomic pointer, and SeqGet can probe concurrently with a
// writer — no lock, no fault — as long as the caller validates a seqlock
// generation counter around the probe (see internal/cmap).
type Core[K comparable, V any] struct {
	buckets        int
	slotsPerBucket int
	stashCap       int
	keys           []K
	vals           []V
	tags           []uint64 // read under the writer's exclusion or the read lock; seq readers never consult tags
	used           []uint32 // 1 = occupied; word-sized so seq-mode stores are atomic
	counts         []uint32 // occupied slots per bucket
	stash          atomic.Pointer[stashBlock[K, V]]
	size           atomic.Int64

	// seqMode routes every mutation of reader-visible words (slot
	// payloads, used flags, counts, stash entries) through sync/atomic
	// stores so lock-free seqlock readers are data-race-free. It is only
	// enabled for pointer-free K/V whose size tiles into 32-bit words
	// (SeqCapable); pointerful types keep plain stores — and their
	// readers keep the mutex — because raw word stores would bypass the
	// garbage collector's write barriers.
	seqMode bool
	// tagFirst makes bucket probes compare stored tags before keys. It is
	// set when K holds pointers, so a key compare may dereference memory.
	tagFirst bool
	// view is the published read snapshot of this geometry's bucket
	// arrays. Its slice headers are immutable once stored; only NewCore
	// and promotion publish a new one.
	view atomic.Pointer[SeqView[K, V]]

	// Resize state. next is the doubled-geometry table entries migrate
	// into; nil when no resize is in flight. Buckets [0, cursor) of the
	// old geometry have been drained by Migrate. resizes counts completed
	// promotions (it survives promotion).
	next    atomic.Pointer[Core[K, V]]
	cursor  int
	resizes atomic.Int64
}

// NewCore returns an empty placement core. It panics on invalid shape.
func NewCore[K comparable, V any](buckets, slotsPerBucket, stashCap int) *Core[K, V] {
	if buckets <= 0 {
		panic(fmt.Sprintf("mchtable: Buckets = %d", buckets))
	}
	if slotsPerBucket <= 0 {
		panic(fmt.Sprintf("mchtable: SlotsPerBucket = %d", slotsPerBucket))
	}
	if stashCap < 0 {
		panic(fmt.Sprintf("mchtable: StashSize = %d", stashCap))
	}
	total := buckets * slotsPerBucket
	c := &Core[K, V]{
		buckets:        buckets,
		slotsPerBucket: slotsPerBucket,
		stashCap:       stashCap,
		keys:           make([]K, total),
		vals:           make([]V, total),
		tags:           make([]uint64, total),
		used:           make([]uint32, total),
		counts:         make([]uint32, buckets),
		tagFirst:       !pointerFree(reflect.TypeFor[K]()),
	}
	c.stash.Store(&stashBlock[K, V]{})
	c.view.Store(&SeqView[K, V]{
		buckets: buckets,
		slots:   slotsPerBucket,
		keys:    c.keys,
		vals:    c.vals,
		used:    c.used,
		counts:  c.counts,
	})
	return c
}

// EnableSeq switches the core into seq mode: every subsequent mutation of
// reader-visible words goes through sync/atomic stores, making SeqGet
// safe to run with no lock held. It must be called before the first
// concurrent reader exists (internal/cmap calls it at construction) and
// panics if K or V is not SeqCapable.
func (c *Core[K, V]) EnableSeq() {
	if !SeqCapable[K]() || !SeqCapable[V]() {
		panic("mchtable: EnableSeq requires pointer-free, word-tiling key and value types")
	}
	c.seqMode = true
}

// Buckets returns the number of buckets in the current (old) geometry.
func (c *Core[K, V]) Buckets() int { return c.buckets }

// SlotsPerBucket returns the slots per bucket.
func (c *Core[K, V]) SlotsPerBucket() int { return c.slotsPerBucket }

// StashCap returns the overflow stash capacity.
func (c *Core[K, V]) StashCap() int { return c.stashCap }

// slot returns the flat index of bucket b, slot s.
func (c *Core[K, V]) slot(b, s int) int { return b*c.slotsPerBucket + s }

// findInBucket returns the slot of key (whose tag is tag) in bucket b, or
// -1. For pointerful K the stored tag is compared first, so only a slot
// whose tag matches has its key dereferenced.
//
//repro:noalloc
func (c *Core[K, V]) findInBucket(key K, tag uint64, b int) int {
	for s := 0; s < c.slotsPerBucket; s++ {
		idx := c.slot(b, s)
		if c.used[idx] != 0 && (!c.tagFirst || c.tags[idx] == tag) && c.keys[idx] == key {
			return idx
		}
	}
	return -1
}

// stashLive returns the live stash entries for writer-side iteration
// (plain reads; the caller holds the writer's exclusion).
func (c *Core[K, V]) stashLive() []stashEntry[K, V] {
	blk := c.stash.Load()
	return blk.arr[:blk.n.Load()]
}

// stashFind returns the stash index of key (whose tag is tag), or -1. A
// stash entry holds its tag beside its key, so the tag is always compared
// first.
//
//repro:noalloc
func (c *Core[K, V]) stashFind(key K, tag uint64) int {
	live := c.stashLive()
	for i := range live {
		if e := &live[i]; e.tag == tag && e.key == key {
			return i
		}
	}
	return -1
}

// stashAppend adds e to the stash, growing the backing block by
// replacement (build bigger, copy, publish) so the published block's
// array header never mutates under a seq reader.
//
//repro:noalloc
func (c *Core[K, V]) stashAppend(e stashEntry[K, V]) {
	blk := c.stash.Load()
	n := int(blk.n.Load())
	if n == len(blk.arr) {
		grown := &stashBlock[K, V]{arr: make([]stashEntry[K, V], max(8, 2*len(blk.arr)))} //repro:allocok growth path: the stash block doubles by replacement, amortized over inserts
		copy(grown.arr, blk.arr[:n])
		grown.arr[n] = e
		grown.n.Store(int32(n + 1))
		c.stash.Store(grown)
		return
	}
	c.setStashEntry(&blk.arr[n], e)
	blk.n.Store(int32(n + 1))
}

// stashRemove deletes stash entry i, preserving the order of the rest so
// drains stay insertion-ordered (and deterministic).
//
//repro:noalloc
func (c *Core[K, V]) stashRemove(i int) {
	blk := c.stash.Load()
	n := int(blk.n.Load())
	for j := i; j < n-1; j++ {
		c.setStashEntry(&blk.arr[j], blk.arr[j+1])
	}
	blk.n.Store(int32(n - 1))
	if !c.seqMode {
		blk.arr[n-1] = stashEntry[K, V]{} // release pointers held by the dead entry
	}
}

// stashPopBack removes and returns the newest stash entry (Migrate's
// deterministic O(1) drain order).
//
//repro:noalloc
func (c *Core[K, V]) stashPopBack() stashEntry[K, V] {
	blk := c.stash.Load()
	n := int(blk.n.Load())
	e := blk.arr[n-1]
	blk.n.Store(int32(n - 1))
	if !c.seqMode {
		blk.arr[n-1] = stashEntry[K, V]{}
	}
	return e
}

// storeInBucket places the pair in a free slot of bucket b, which the
// caller has verified exists.
//
//repro:noalloc
func (c *Core[K, V]) storeInBucket(b int, key K, val V, tag uint64) {
	for s := 0; s < c.slotsPerBucket; s++ {
		idx := c.slot(b, s)
		if c.used[idx] == 0 {
			// Payload before the used flag: a concurrent seq reader that
			// observes used=1 then reads a half-written pair still retries
			// (its generation check fails), but ordering this way keeps
			// such windows rare.
			c.setKey(&c.keys[idx], key)
			c.setVal(&c.vals[idx], val)
			c.tags[idx] = tag
			c.setUsed(idx, 1)
			c.setCount(b, c.counts[b]+1)
			return
		}
	}
	panic("mchtable: storeInBucket on a full bucket")
}

// Put stores key → val given key's candidate buckets, updating in place
// if key is present. tag is the opaque value candidates re-derive from
// (see the type comment); it is stored alongside the pair. Put reports
// whether the pair is stored; false means every candidate bucket and the
// stash were full (the insertion is rejected, core unchanged).
//
// Put addresses the current geometry only; while a resize is in flight
// callers must use PutDual instead.
//
//repro:noalloc
func (c *Core[K, V]) Put(cands []uint32, key K, val V, tag uint64) bool {
	return c.update(cands, key, val, tag) || c.place(cands, key, val, tag, true)
}

// update overwrites key's value in place wherever key already lives — a
// candidate bucket or the stash — reporting whether it was present.
//
//repro:noalloc
func (c *Core[K, V]) update(cands []uint32, key K, val V, tag uint64) bool {
	for _, b := range cands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			c.setVal(&c.vals[idx], val)
			return true
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		c.setVal(&c.stash.Load().arr[i].val, val)
		return true
	}
	return false
}

// place inserts a pair the caller knows is absent, with no lookup. The
// stash capacity check is optional: growth migrations pass capped=false
// so forward progress never depends on stash headroom (see Migrate).
//
//repro:noalloc
func (c *Core[K, V]) place(cands []uint32, key K, val V, tag uint64, capped bool) bool {
	// Place in the least-loaded candidate bucket, ties to the first —
	// exactly the balanced-allocation rule, via the engine's shared
	// selection.
	if best, count := engine.LeastLoadedFirst(c.counts, cands); int(count) < c.slotsPerBucket {
		c.storeInBucket(int(best), key, val, tag)
		c.size.Add(1)
		return true
	}
	// All candidates full: stash.
	if !capped || int(c.stash.Load().n.Load()) < c.stashCap {
		c.stashAppend(stashEntry[K, V]{key: key, val: val, tag: tag})
		c.size.Add(1)
		return true
	}
	return false
}

// Get returns the value stored for key, given key's candidate buckets in
// the current geometry and its tag. While a resize is in flight use
// GetDual.
//
//repro:noalloc
func (c *Core[K, V]) Get(cands []uint32, key K, tag uint64) (V, bool) {
	v, _, ok := c.GetDepth(cands, key, tag)
	return v, ok
}

// GetDepth is Get that also reports the probe depth at which key
// resolved: the index into cands of the bucket holding it, len(cands)
// for a stash hit, -1 on a miss. The sampled read path in
// internal/cmap feeds its probe-depth histogram — the paper's
// which-choice-held distribution — from this.
//
//repro:noalloc
func (c *Core[K, V]) GetDepth(cands []uint32, key K, tag uint64) (V, int, bool) {
	for depth, b := range cands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			return c.vals[idx], depth, true
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		return c.stash.Load().arr[i].val, len(cands), true
	}
	var zero V
	return zero, -1, false
}

// GetDualDepth is GetDepth while a resize is in flight: old geometry
// first, then the new one, with new-geometry depths offset past the
// old probe sequence (len(oldCands)+1) so the histogram reflects the
// total buckets examined.
//
//repro:noalloc
func (c *Core[K, V]) GetDualDepth(oldCands, newCands []uint32, key K, tag uint64) (V, int, bool) {
	if v, depth, ok := c.GetDepth(oldCands, key, tag); ok {
		return v, depth, true
	}
	if next := c.next.Load(); next != nil {
		if v, depth, ok := next.GetDepth(newCands, key, tag); ok {
			return v, len(oldCands) + 1 + depth, true
		}
	}
	var zero V
	return zero, -1, false
}

// GetBatch resolves keys[i] → (vals[i], found[i]) against the current
// geometry, given each key's candidate buckets in cands[i*d:(i+1)*d] and
// its tag in tags[i]: a prefetch pass touches every candidate bucket's
// cache lines first, so the batch's random memory accesses overlap
// instead of serializing probe-by-probe, then each key resolves with the
// ordinary probe (buckets, then stash). It returns the number found.
// Like Get, GetBatch addresses the current geometry only; the
// resize-aware concurrent batch loop lives in internal/cmap.
//
//repro:noalloc
func (c *Core[K, V]) GetBatch(cands []uint32, d int, keys []K, tags []uint64, vals []V, found []bool) int {
	if d <= 0 || len(cands) < len(keys)*d || len(tags) < len(keys) || len(vals) < len(keys) || len(found) < len(keys) {
		panic("mchtable: GetBatch slice shapes do not cover the key batch")
	}
	v := c.view.Load()
	var sum uint32
	for i := range keys {
		sum += v.Prefetch(cands[i*d : (i+1)*d])
	}
	keepAlive32(sum)
	n := 0
	for i := range keys {
		vals[i], found[i] = c.Get(cands[i*d:(i+1)*d], keys[i], tags[i])
		if found[i] {
			n++
		}
	}
	return n
}

// Delete removes key (whose tag is tag), reporting whether it was
// present. Freeing a bucket slot triggers a stash drain: any stashed
// entry with that bucket among its candidates (re-derived from its stored
// tag through candsOf) moves back into the table, so transient overflow
// does not pin stash capacity forever. cands must not alias the buffer
// candsOf writes into — the drain recomputes stashed entries' candidates
// while cands is still live. While a resize is in flight use DeleteDual.
//
//repro:noalloc
func (c *Core[K, V]) Delete(cands []uint32, key K, tag uint64, candsOf func(tag uint64) []uint32) bool {
	for _, b := range cands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			c.clearSlot(idx, int(b))
			c.drainStashInto(int(b), candsOf)
			return true
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		c.stashRemove(i)
		c.size.Add(-1)
		return true
	}
	return false
}

// clearSlot frees flat slot idx of bucket b. Outside seq mode the stored
// pair is zeroed so no dead key or value (which may hold pointers for
// generic V) stays reachable; in seq mode the types are pointer-free —
// nothing is pinned — and plain zeroing would race with lock-free
// readers, so the dead payload just stays behind the cleared used flag.
//
//repro:noalloc
func (c *Core[K, V]) clearSlot(idx, b int) {
	c.setUsed(idx, 0)
	if !c.seqMode {
		var zeroK K
		var zeroV V
		c.keys[idx] = zeroK
		c.vals[idx] = zeroV
	}
	c.setCount(b, c.counts[b]-1)
	c.size.Add(-1)
}

// drainStashInto moves the first stashed entry (insertion order) whose
// candidate set covers bucket b into b, if b has a free slot.
//
//repro:noalloc
func (c *Core[K, V]) drainStashInto(b int, candsOf func(tag uint64) []uint32) {
	if int(c.counts[b]) >= c.slotsPerBucket {
		return
	}
	for i, e := range c.stashLive() {
		for _, cb := range candsOf(e.tag) {
			if int(cb) != b {
				continue
			}
			c.storeInBucket(b, e.key, e.val, e.tag)
			c.stashRemove(i)
			return
		}
	}
}

// StartResize begins an online resize to newBuckets buckets (same slots
// per bucket and stash capacity): it allocates the new-geometry Core that
// Migrate drains entries into. It panics if a resize is already in flight
// or the shape is invalid. Until the resize completes, all operations must
// go through the *Dual variants with candidates for both geometries.
func (c *Core[K, V]) StartResize(newBuckets int) {
	if c.next.Load() != nil {
		panic("mchtable: StartResize during an in-flight resize")
	}
	if newBuckets <= 0 || newBuckets == c.buckets {
		panic(fmt.Sprintf("mchtable: resize %d -> %d buckets", c.buckets, newBuckets))
	}
	next := NewCore[K, V](newBuckets, c.slotsPerBucket, c.stashCap)
	next.seqMode = c.seqMode
	c.cursor = 0
	c.next.Store(next)
}

// Resizing reports whether a resize is in flight.
func (c *Core[K, V]) Resizing() bool { return c.next.Load() != nil }

// Next returns the in-flight resize target core, or nil. The load is
// atomic, so lock-free readers can chase the pointer mid-migration.
func (c *Core[K, V]) Next() *Core[K, V] { return c.next.Load() }

// Pending returns the number of entries still stored in the old geometry
// of an in-flight resize (0 when not resizing) — the migration backlog.
func (c *Core[K, V]) Pending() int {
	if c.next.Load() == nil {
		return 0
	}
	return int(c.size.Load())
}

// Resizes returns the number of completed resizes.
func (c *Core[K, V]) Resizes() int { return int(c.resizes.Load()) }

// Migrate performs up to n units of migration work — moving an entry
// from the old geometry into the new one, or sweeping past an empty old
// bucket — deriving each entry's new-geometry candidates from its stored
// tag via candsOf. Sweeps count against the budget so the caller's
// lock-hold time per call stays O(n) even on a sparse shard whose resize
// was armed by stash pressure. It returns the work performed; 0 means
// there is nothing left to do or the new geometry rejected an entry.
//
// Entries are placed with no lookup in the new geometry: mid-resize an
// entry lives in exactly one geometry (PutDual moves a key across before
// writing it), so a migrating key cannot already be there.
//
// A growth migration (more buckets) always makes progress: an entry whose
// new-geometry candidates are all full goes to the new stash even past
// its capacity, so a resize can never wedge behind one unplaceable entry
// while chained doublings are blocked — the overflow is temporary, since
// the promoted geometry's stash pressure immediately re-arms the next
// doubling, which re-places it. A shrink migration keeps the stash cap:
// if the smaller geometry cannot hold the backlog, Migrate reports no
// progress and every entry stays reachable in the old geometry rather
// than being lost.
//
// When the old geometry empties, the new Core is promoted in place and
// Resizing becomes false; the receiver pointer remains valid throughout.
//
//repro:digestcarried
//repro:noalloc
func (c *Core[K, V]) Migrate(n int, candsOf func(tag uint64) []uint32) int {
	next := c.next.Load()
	if next == nil {
		return 0
	}
	capped := next.buckets < c.buckets // only shrinks may stall
	work := 0
	for work < n && c.size.Load() > 0 {
		if c.cursor < c.buckets {
			b := c.cursor
			if c.counts[b] == 0 {
				c.cursor++
				work++
				continue
			}
			idx := -1
			for s := 0; s < c.slotsPerBucket; s++ {
				if i := c.slot(b, s); c.used[i] != 0 {
					idx = i
					break
				}
			}
			if !next.place(candsOf(c.tags[idx]), c.keys[idx], c.vals[idx], c.tags[idx], capped) {
				return work
			}
			c.clearSlot(idx, b)
			work++
			continue
		}
		// Buckets drained; move the stash back to front — deterministic
		// and O(1) per entry, where consuming the front would memmove the
		// remainder every step (quadratic on the oversized stashes a
		// saturated growth migration builds).
		live := c.stashLive()
		e := live[len(live)-1]
		if !next.place(candsOf(e.tag), e.key, e.val, e.tag, capped) {
			return work
		}
		c.stashPopBack()
		c.size.Add(-1)
		work++
	}
	if c.size.Load() == 0 {
		c.promote()
	}
	return work
}

// promote replaces the receiver's contents with the fully migrated
// new-geometry Core, ending the resize. Callers' *Core pointers survive.
// The adoption is field by field: the atomic fields must not be
// struct-copied, reader-visible state (view, stash, size) switches
// through its atomic cells, and slotsPerBucket/stashCap are invariant
// across a resize, so callers may read them without any lock.
func (c *Core[K, V]) promote() {
	next := c.next.Load()
	c.buckets = next.buckets
	c.keys, c.vals, c.tags = next.keys, next.vals, next.tags
	c.used, c.counts = next.used, next.counts
	c.cursor = 0
	c.size.Store(next.size.Load())
	c.stash.Store(next.stash.Load())
	c.view.Store(next.view.Load())
	c.resizes.Add(1)
	c.next.Store(nil)
}

// GetDual is Get while a resize is in flight: the old geometry (oldCands)
// is consulted first, then the new one (newCands), so no key is ever
// unreachable mid-migration. With no resize in flight it is plain Get.
//
//repro:noalloc
func (c *Core[K, V]) GetDual(oldCands, newCands []uint32, key K, tag uint64) (V, bool) {
	v, _, ok := c.GetDualDepth(oldCands, newCands, key, tag)
	return v, ok
}

// PutDual is Put while a resize is in flight. A key still resident in the
// old geometry is moved to the new one (insertion piggybacks migration);
// otherwise the pair goes to the new geometry directly. If the new
// geometry rejects the pair (all candidates and its stash full — rare,
// since resizes grow the table) a resident key is updated in place in the
// old geometry and a new key is rejected. It panics without a resize in
// flight.
//
//repro:noalloc
func (c *Core[K, V]) PutDual(oldCands, newCands []uint32, key K, val V, tag uint64) bool {
	next := c.next.Load()
	if next == nil {
		panic("mchtable: PutDual without a resize in flight")
	}
	for _, b := range oldCands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			if next.Put(newCands, key, val, tag) {
				c.clearSlot(idx, int(b))
				return true
			}
			c.setVal(&c.vals[idx], val)
			return true
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		if next.Put(newCands, key, val, tag) {
			c.stashRemove(i)
			c.size.Add(-1)
			return true
		}
		c.setVal(&c.stash.Load().arr[i].val, val)
		return true
	}
	return next.Put(newCands, key, val, tag)
}

// DeleteDual is Delete while a resize is in flight: the key is removed
// from whichever geometry holds it. Old-geometry deletions skip the stash
// drain — stashed entries are on their way to the new geometry anyway —
// while new-geometry deletions drain the new stash through newCandsOf. It
// panics without a resize in flight.
//
//repro:noalloc
func (c *Core[K, V]) DeleteDual(oldCands, newCands []uint32, key K, tag uint64, newCandsOf func(tag uint64) []uint32) bool {
	next := c.next.Load()
	if next == nil {
		panic("mchtable: DeleteDual without a resize in flight")
	}
	for _, b := range oldCands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			c.clearSlot(idx, int(b))
			return true
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		c.stashRemove(i)
		c.size.Add(-1)
		return true
	}
	return next.Delete(newCands, key, tag, newCandsOf)
}

// Len returns the number of stored pairs (including stashed ones and, mid-
// resize, pairs already migrated to the new geometry). Every word it
// reads is atomic, so seqlock readers can call it with no lock held; the
// combined figure is only point-in-time consistent when the caller's
// generation check validates (or the caller holds a lock).
func (c *Core[K, V]) Len() int {
	n := int(c.size.Load())
	if next := c.next.Load(); next != nil {
		n += int(next.size.Load())
	}
	return n
}

// StashLen returns the number of stashed pairs — the overflow count —
// across both geometries mid-resize. Like Len it reads only atomic words.
func (c *Core[K, V]) StashLen() int {
	n := int(c.stash.Load().n.Load())
	if next := c.next.Load(); next != nil {
		n += int(next.stash.Load().n.Load())
	}
	return n
}

// Capacity returns the total slot capacity (excluding the stash). While a
// resize is in flight both geometries' slots exist, and both count.
func (c *Core[K, V]) Capacity() int {
	n := c.buckets * c.slotsPerBucket
	if next := c.next.Load(); next != nil {
		n += next.buckets * next.slotsPerBucket
	}
	return n
}

// Occupancy returns stored pairs divided by total slot capacity.
func (c *Core[K, V]) Occupancy() float64 {
	return float64(c.Len()) / float64(c.Capacity())
}

// Range calls fn for every stored pair with its tag until fn returns
// false, reporting whether the iteration ran to completion. The order is
// deterministic for a fixed core state: buckets in index order (slots in
// order within each), then the stash in insertion order; while a resize
// is in flight the old geometry streams first, then the new one. Every
// pair is visited exactly once — mid-migration an entry lives in exactly
// one geometry — which is what makes Range the snapshot iterator: a
// persisted section is just Range's (key, val, tag) stream.
//
// fn must not mutate the core. Range reads plainly, so the caller must
// exclude writers (internal/cmap holds the shard lock).
func (c *Core[K, V]) Range(fn func(key K, val V, tag uint64) bool) bool {
	for idx, used := range c.used {
		if used != 0 && !fn(c.keys[idx], c.vals[idx], c.tags[idx]) {
			return false
		}
	}
	for _, e := range c.stashLive() {
		if !fn(e.key, e.val, e.tag) {
			return false
		}
	}
	if next := c.next.Load(); next != nil {
		return next.Range(fn)
	}
	return true
}

// AddBucketLoads folds the per-bucket occupancy counts into h — the
// quantity the paper's load tables predict. internal/cmap aggregates its
// shards' histograms through this. Mid-resize, both geometries' buckets
// contribute. Like Range, it reads plainly under the caller's exclusion.
func (c *Core[K, V]) AddBucketLoads(h *stats.Hist) {
	for _, n := range c.counts {
		h.Add(int(n))
	}
	if next := c.next.Load(); next != nil {
		next.AddBucketLoads(h)
	}
}
