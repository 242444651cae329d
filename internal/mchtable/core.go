package mchtable

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/engine"
)

// inlineRef is the ref an entry carries when K and V are both inline:
// occupied, with no arena record. Arena refs are at least 1<<32.
const inlineRef = 1

// slots is a run of pair storage: the control words, and the key and
// value arrays of fields stored inline (nil for a field kept in the
// arena). A geometry's buckets and each stash block are one slots each,
// so the same accessors serve both.
//
// A slot's control word takes one of two shapes, fixed by the layout.
// With arena fields, refs holds the slot's 64-bit ref: 0 for an empty
// slot, otherwise the pair's arena record with 16 bits of the pair's tag
// in its top bits (see refTag), so one load both filters the slot on the
// tag and finds its record, and a 4-slot bucket's refs are half a cache
// line. The full tag is the record's first 8 bytes, so a slot is its ref
// alone. With K and V both inline, used holds a 32-bit occupancy flag per
// slot — one cache line covers four 4-slot buckets — and the probe
// compares the key in place, where a tag compare would only add a load;
// the full tags sit apart, in the tags array. Either way only writers
// read the full tag (migration and the stash drain re-derive candidates
// from it).
type slots[K comparable, V any] struct {
	refs []uint64 // arena layouts
	used []uint32 // inline layouts: 1 = occupied
	tags []uint64 // inline layouts
	keys []K      // nil when K lives in the arena
	vals []V      // nil when V lives in the arena
}

// makeSlots allocates n empty slots for lay.
func makeSlots[K comparable, V any](n int, lay layout) slots[K, V] {
	var s slots[K, V]
	if lay.inArena() {
		s.refs = make([]uint64, n)
	} else {
		s.tags = make([]uint64, n)
		s.used = make([]uint32, n)
	}
	if lay&keyInArena == 0 {
		s.keys = make([]K, n)
	}
	if lay&valInArena == 0 {
		s.vals = make([]V, n)
	}
	return s
}

// bytes returns the memory of n slots of this shape.
func (s *slots[K, V]) bytes() int64 {
	var zk K
	var zv V
	return int64(len(s.refs))*8 + int64(len(s.used))*4 + int64(len(s.tags))*8 +
		int64(len(s.keys))*int64(unsafe.Sizeof(zk)) + int64(len(s.vals))*int64(unsafe.Sizeof(zv))
}

// entry is one stored pair in transit between slots: its tag and ref,
// and its inline fields (zero for fields kept in the arena).
type entry[K comparable, V any] struct {
	tag, ref uint64
	key      K
	val      V
}

// stashBlock is the stash storage cell: fixed slot arrays plus the
// atomic live count, and the arena its refs name. The arrays are
// immutable once the block is published through Core.stash — growth
// builds a bigger block off to the side and swaps the pointer — so
// lock-free readers can walk the first n slots without a header tear, and
// n never exceeds the block's length.
type stashBlock[K comparable, V any] struct {
	n     atomic.Int32
	arena *arena
	slots[K, V]
}

// cap returns the block's slot count: its refs, or its used flags.
func (b *stashBlock[K, V]) cap() int { return len(b.refs) + len(b.used) }

// Core is the bucket/stash placement engine of the multiple-choice hash
// table: fixed-slot buckets, least-loaded placement over caller-supplied
// candidate buckets, and an overflow stash drained back into buckets as
// deletes free slots. It is hashing-agnostic — callers derive each key's
// candidate buckets themselves — and generic over the stored key and
// value types, so the single-threaded uint64 Table and the shards of
// internal/cmap share one placement implementation.
//
// Every stored pair carries an opaque 64-bit tag from which the caller can
// re-derive the pair's candidate buckets without touching the key again
// (in its arena record, or in the tags array when K and V are inline):
// internal/cmap stores the in-shard SipHash digest (so candidates for a
// new geometry come from the same single hash evaluation, the paper's
// one-hash discipline), while the uint64 Table simply stores the key.
// Tags are what make online resize a pure re-placement: Migrate
// re-derives candidates for the new geometry from stored tags, never
// re-hashing user keys. They also filter probes: every lookup takes the
// key's tag alongside the key, and in a layout with arena fields compares
// the 16 tag bits a slot's ref carries before its key, so a key held in
// the arena is read only in a slot whose tag bits match. (An inline key
// compares in place, where the tag would only add a load.) The tag is a
// filter, never an identity — equal tags still compare keys.
//
// The type rule, fixed at construction: K and V must each be pointer-free
// with a size that is a multiple of 4 bytes — stored inline, in the slot
// arrays — or a string kind (K or V) or []byte (V only), stored in the
// geometry's append-only byte arena, with the slot holding a 64-bit ref
// to the record (see arena.go and slots). Any other type panics in
// NewCore. Every slot is therefore pointer-free: the collector never
// scans the slot arrays, and lock-free readers can load every slot word
// atomically. SeqGet and Range return arena fields as views
// of their records, valid for as long as the caller holds them; a
// returned []byte must not be written. Put copies string and []byte
// arguments into the arena.
//
// The publication invariant: a record's bytes are written before the ref
// that names them is stored (one atomic 64-bit store), and never written
// after. Inline fields are stored before the ref (or, with no arena
// fields, the used flag) that publishes the slot.
//
// Occupancy is recorded once, in the slots: a bucket's load is its count
// of occupied slot words (non-zero refs, or set used flags), which sit in
// the bucket's own line. Placement therefore reads only the lines its key
// lookup has just read, and an insert or a delete stores one word.
//
// A Core optionally resizes online: StartResize allocates a second Core
// with a different bucket count, and StartRebuild one with the same count,
// which compacts the arena (see NeedsRebuild); Migrate moves entries
// across in small batches, Put and Delete write through both geometries
// given a key's candidates in each, and a lookup keeps every key
// reachable mid-migration by probing the old geometry first and Next's
// second. When the old side empties, the new Core is promoted in place —
// the *Core pointer held by callers keeps working across the hand-off.
//
// The stash is insertion-ordered so that drain and migration order — and
// therefore placement — is fully deterministic for a fixed op sequence.
//
// Mutating a Core requires external exclusion (internal/cmap wraps each
// shard's core in a lock). Every reader-visible word is written with
// sync/atomic stores and a SeqView of the bucket arrays is published
// through an atomic pointer, so SeqGet, the Core's one lookup, can probe
// concurrently with a writer — no lock, no fault — as long as the caller
// validates a seqlock generation counter around the probe (see
// internal/cmap). A caller that excludes writers, as the single-threaded
// Table does, needs no validation.
type Core[K comparable, V any] struct {
	buckets        int
	slotsPerBucket int
	stashCap       int
	lay            layout
	slots[K, V]    // bucket storage, slot s of bucket b at b*slotsPerBucket+s
	arena          *arena
	stash          atomic.Pointer[stashBlock[K, V]]
	size           atomic.Int64

	// loads and positions are place's selection scratch (writer-side):
	// the candidates' loads, and the positions 0, 1, … that index them.
	loads, positions []uint32

	// view is the published read snapshot of this geometry's bucket
	// arrays. Its slice headers are immutable once stored; only NewCore
	// and promotion publish a new one.
	view atomic.Pointer[SeqView[K, V]]

	// Resize state. next is the table entries migrate into; nil when no
	// resize is in flight. Buckets [0, cursor) of the old geometry have
	// been drained by Migrate. resizes counts completed promotions (it
	// survives promotion).
	next    atomic.Pointer[Core[K, V]]
	cursor  int
	resizes atomic.Int64
}

// NewCore returns an empty placement core. It panics on invalid shape,
// or if K or V breaks the type rule (see the type comment).
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
	lay := layoutOf[K, V]()
	c := &Core[K, V]{
		buckets:        buckets,
		slotsPerBucket: slotsPerBucket,
		stashCap:       stashCap,
		lay:            lay,
		slots:          makeSlots[K, V](buckets*slotsPerBucket, lay),
		arena:          newArena(),
	}
	c.stash.Store(&stashBlock[K, V]{arena: c.arena})
	c.view.Store(&SeqView[K, V]{
		buckets: buckets,
		slots:   slotsPerBucket,
		lay:     lay,
		arena:   c.arena,
		refs:    c.refs,
		used:    c.used,
		keys:    c.keys,
		vals:    c.vals,
	})
	return c
}

// Buckets returns the number of buckets in the current (old) geometry.
func (c *Core[K, V]) Buckets() int { return c.buckets }

// SlotsPerBucket returns the slots per bucket.
func (c *Core[K, V]) SlotsPerBucket() int { return c.slotsPerBucket }

// StashCap returns the overflow stash capacity.
func (c *Core[K, V]) StashCap() int { return c.stashCap }

// slot returns the flat index of bucket b, slot s.
func (c *Core[K, V]) slot(b, s int) int { return b*c.slotsPerBucket + s }

// holds reports whether slot i of s stores key, whose ref tag bits are
// rt (refTag of its tag). With arena fields the tag bits are compared
// first, so a key kept in the arena is read only in a slot whose tag
// bits match. Writer-side: plain reads under the writer's exclusion.
//
//repro:noalloc
func (c *Core[K, V]) holds(s *slots[K, V], i int, key K, rt uint64) bool {
	if !c.lay.inArena() {
		return s.used[i] != 0 && s.keys[i] == key
	}
	ref := s.refs[i]
	if ref == 0 || ref&refTagMask != rt {
		return false
	}
	if c.lay&keyInArena == 0 {
		return s.keys[i] == key
	}
	kb, _, ok := c.arena.table.Load().fields(c.lay, ref)
	return ok && viewString(kb) == keyString(&key)
}

// occupied reports whether slot i of s holds a pair (writer-side).
//
//repro:noalloc
func (c *Core[K, V]) occupied(s *slots[K, V], i int) bool {
	if c.lay.inArena() {
		return s.refs[i] != 0
	}
	return s.used[i] != 0
}

// load returns bucket b's load: its count of occupied slots
// (writer-side, plain reads).
//
//repro:noalloc
func (c *Core[K, V]) load(b int) int {
	lo, hi := c.slot(b, 0), c.slot(b+1, 0)
	n := 0
	if c.lay.inArena() {
		for _, ref := range c.refs[lo:hi] {
			n += int((ref | -ref) >> 63) // 1 for an occupied slot, without a branch
		}
		return n
	}
	for _, u := range c.used[lo:hi] {
		n += int(u) // a used flag is 0 or 1
	}
	return n
}

// entryAt reads slot i of s (writer-side, plain reads), taking the tag
// from the slot's record when it has one.
//
//repro:noalloc
func (c *Core[K, V]) entryAt(s *slots[K, V], i int) entry[K, V] {
	var e entry[K, V]
	if c.lay.inArena() {
		e.ref = s.refs[i]
		e.tag = c.arena.table.Load().tag(e.ref)
	} else {
		e.tag, e.ref = s.tags[i], inlineRef
	}
	if c.lay&keyInArena == 0 {
		e.key = s.keys[i]
	}
	if c.lay&valInArena == 0 {
		e.val = s.vals[i]
	}
	return e
}

// pair returns the key and value e stores, arena fields as views of its
// record (writer-side: the stash and the buckets share c.arena).
//
//repro:noalloc
func (c *Core[K, V]) pair(e *entry[K, V]) (K, V) {
	k, v := e.key, e.val
	if c.lay.inArena() {
		kb, vb, _ := c.arena.table.Load().fields(c.lay, e.ref)
		if c.lay&keyInArena != 0 {
			k = keyView[K](kb)
		}
		if c.lay&valInArena != 0 {
			v = valView[V](c.lay, vb)
		}
	}
	return k, v
}

// encode returns the entry that stores key → val under tag, appending
// the pair's arena fields, if it has any, as a new record.
//
//repro:noalloc
func (c *Core[K, V]) encode(key K, val V, tag uint64) entry[K, V] {
	e := entry[K, V]{tag: tag, ref: inlineRef}
	var ks, vs string
	if c.lay&keyInArena == 0 {
		e.key = key
	} else {
		ks = keyString(&key)
	}
	if c.lay&valInArena == 0 {
		e.val = val
	} else {
		vs = valString(c.lay, &val)
	}
	if c.lay.inArena() {
		e.ref = c.arena.put(c.lay, tag, ks, vs) | refTag(tag)
	}
	return e
}

// setValue replaces the value of the pair in slot i of s, whose key is
// key and whose tag is tag: in place when V is inline, otherwise as a new
// record whose ref replaces the old one (the old record's bytes stay
// intact for views and readers that hold them).
//
//repro:noalloc
func (c *Core[K, V]) setValue(s *slots[K, V], i int, key K, val V, tag uint64) {
	if c.lay&valInArena == 0 {
		storeWords(&s.vals[i], &val)
		return
	}
	old := s.refs[i] // V is in the arena, so the slot has a ref
	e := c.encode(key, val, tag)
	atomic.StoreUint64(&s.refs[i], e.ref)
	c.arena.release(c.lay, old)
}

// findInBucket returns the slot of key (whose tag is tag) in bucket b, or
// -1.
//
//repro:noalloc
func (c *Core[K, V]) findInBucket(key K, tag uint64, b int) int {
	lo, hi := c.slot(b, 0), c.slot(b+1, 0)
	if !c.lay.inArena() {
		for idx := lo; idx < hi; idx++ { // holds, unrolled for inline layouts
			if c.used[idx] != 0 && c.keys[idx] == key {
				return idx
			}
		}
		return -1
	}
	rt := refTag(tag)
	for idx := lo; idx < hi; idx++ {
		if c.holds(&c.slots, idx, key, rt) {
			return idx
		}
	}
	return -1
}

// stashFind returns the stash index of key (whose tag is tag), or -1.
//
//repro:noalloc
func (c *Core[K, V]) stashFind(key K, tag uint64) int {
	blk := c.stash.Load()
	rt := refTag(tag)
	for i := 0; i < int(blk.n.Load()); i++ {
		if c.holds(&blk.slots, i, key, rt) {
			return i
		}
	}
	return -1
}

// stashAppend adds e to the stash, growing the backing block by
// replacement (build bigger, copy, publish) so the published block's
// arrays never change under a seq reader.
//
//repro:noalloc
func (c *Core[K, V]) stashAppend(e *entry[K, V]) {
	blk := c.stash.Load()
	n := int(blk.n.Load())
	if n == blk.cap() {
		grown := &stashBlock[K, V]{arena: c.arena, slots: makeSlots[K, V](max(8, 2*n), c.lay)} //repro:allocok growth path: the stash block doubles by replacement, amortized over inserts
		copy(grown.refs, blk.refs)
		copy(grown.used, blk.used)
		copy(grown.tags, blk.tags)
		if c.lay&keyInArena == 0 {
			copy(grown.keys, blk.keys[:n])
		}
		if c.lay&valInArena == 0 {
			copy(grown.vals, blk.vals[:n])
		}
		c.putSlot(&grown.slots, n, e)
		grown.n.Store(int32(n + 1))
		c.stash.Store(grown)
		return
	}
	c.putSlot(&blk.slots, n, e)
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
		e := c.entryAt(&blk.slots, j+1)
		c.putSlot(&blk.slots, j, &e)
	}
	blk.n.Store(int32(n - 1))
}

// storeInBucket places e in a free slot of bucket b, which the caller has
// verified exists.
//
//repro:noalloc
func (c *Core[K, V]) storeInBucket(b int, e *entry[K, V]) {
	for s := 0; s < c.slotsPerBucket; s++ {
		if idx := c.slot(b, s); !c.occupied(&c.slots, idx) {
			c.putSlot(&c.slots, idx, e)
			return
		}
	}
	panic("mchtable: storeInBucket on a full bucket")
}

// Put stores key → val given key's candidate buckets, updating in place
// if key is present. tag is the opaque value candidates re-derive from
// (see the type comment); it is stored alongside the pair. Put reports
// whether the pair is stored; false means the insertion is rejected,
// core unchanged.
//
// nextCands are key's candidates in Next's geometry, read only while a
// resize is in flight. Then a key still resident in the current geometry
// moves to the next one (insertion piggybacks migration), and a new key
// goes to the next geometry directly. Settled, a new key is rejected when
// every candidate bucket and the stash are full; mid-resize, when the
// next geometry's are (rare, since resizes grow the table), and a
// resident key the next geometry rejects is updated where it lives.
//
//repro:noalloc
func (c *Core[K, V]) Put(cands, nextCands []uint32, key K, val V, tag uint64) bool {
	s, i := c.find(cands, key, tag)
	next := c.next.Load()
	if next != nil && next.Put(nextCands, nil, key, val, tag) {
		if s != nil {
			c.remove(s, i)
		}
		return true
	}
	if s != nil {
		c.setValue(s, i, key, val, tag)
		return true
	}
	return next == nil && c.place(cands, key, val, tag, true)
}

// find returns the slots and index where key (whose tag is tag) lives in
// the current geometry — a candidate bucket's slot or a stash entry — or
// nil slots if it is absent.
//
//repro:noalloc
func (c *Core[K, V]) find(cands []uint32, key K, tag uint64) (*slots[K, V], int) {
	for _, b := range cands {
		if idx := c.findInBucket(key, tag, int(b)); idx >= 0 {
			return &c.slots, idx
		}
	}
	if i := c.stashFind(key, tag); i >= 0 {
		return &c.stash.Load().slots, i
	}
	return nil, -1
}

// remove deletes the pair find located at slot i of s.
//
//repro:noalloc
func (c *Core[K, V]) remove(s *slots[K, V], i int) {
	if s == &c.slots {
		c.clearSlot(i)
	} else {
		c.dropStash(i)
	}
}

// place inserts a pair the caller knows is absent, with no lookup. The
// stash capacity check is optional: growth migrations pass capped=false
// so forward progress never depends on stash headroom (see Migrate).
//
//repro:noalloc
func (c *Core[K, V]) place(cands []uint32, key K, val V, tag uint64, capped bool) bool {
	// Place in the least-loaded candidate bucket, ties to the first —
	// exactly the balanced-allocation rule, via the engine's shared
	// selection over the candidates' loads.
	loads, positions := c.candidateLoads(cands)
	if i, load := engine.LeastLoadedFirst(loads, positions); int(load) < c.slotsPerBucket {
		e := c.encode(key, val, tag)
		c.storeInBucket(int(cands[i]), &e)
		c.size.Add(1)
		return true
	}
	// All candidates full: stash.
	if !capped || int(c.stash.Load().n.Load()) < c.stashCap {
		e := c.encode(key, val, tag)
		c.stashAppend(&e)
		c.size.Add(1)
		return true
	}
	return false
}

// candidateLoads returns the loads of cands' buckets in cands' order,
// and the positions 0, 1, … that index them, so engine's selection over
// the two returns a position in cands. The buffers are the Core's,
// sized at its first placement.
//
//repro:noalloc
func (c *Core[K, V]) candidateLoads(cands []uint32) (loads, positions []uint32) {
	if len(c.positions) < len(cands) {
		c.loads = make([]uint32, len(cands))     //repro:allocok once per Core: sized at its first placement
		c.positions = make([]uint32, len(cands)) //repro:allocok once per Core, with loads
		for i := range c.positions {
			c.positions[i] = uint32(i)
		}
	}
	loads = c.loads[:len(cands)]
	for i, b := range cands {
		loads[i] = uint32(c.load(int(b)))
	}
	return loads, c.positions[:len(cands)]
}

// Delete removes key (whose tag is tag), reporting whether it was
// present. nextCands are key's candidates in Next's geometry, read only
// while a resize is in flight, when key is removed from whichever
// geometry holds it. Freeing a bucket slot of a settled geometry — or,
// mid-resize, of Next's — triggers a stash drain: any stashed entry with
// that bucket among its candidates (re-derived from its stored tag
// through candsOf, which therefore derives for Next's geometry while a
// resize is in flight and for the current one otherwise) moves back into
// the table, so transient overflow does not pin stash capacity forever.
// A mid-resize deletion from the current geometry drains nothing: its
// stashed entries are on their way to the next one. cands and nextCands
// must not alias the buffer candsOf writes into — the drain recomputes
// stashed entries' candidates while they are still live.
//
//repro:noalloc
func (c *Core[K, V]) Delete(cands, nextCands []uint32, key K, tag uint64, candsOf func(tag uint64) []uint32) bool {
	s, i := c.find(cands, key, tag)
	next := c.next.Load()
	if s == nil {
		return next != nil && next.Delete(nextCands, nil, key, tag, candsOf)
	}
	c.remove(s, i)
	if s == &c.slots && next == nil {
		c.drainStashInto(i/c.slotsPerBucket, candsOf)
	}
	return true
}

// dropStash removes stash entry i and releases its record.
//
//repro:noalloc
func (c *Core[K, V]) dropStash(i int) {
	blk := c.stash.Load()
	c.release(&blk.slots, i)
	c.stashRemove(i)
	c.size.Add(-1)
}

// clearSlot frees flat bucket slot idx, releasing its record. The
// slot's other words stay behind the cleared ref: they hold no pointers,
// and zeroing them would race with lock-free readers.
//
//repro:noalloc
func (c *Core[K, V]) clearSlot(idx int) {
	c.release(&c.slots, idx)
	if c.lay.inArena() {
		atomic.StoreUint64(&c.refs[idx], 0)
	} else {
		atomic.StoreUint32(&c.used[idx], 0)
	}
	c.size.Add(-1)
}

// release marks the arena record of the pair in slot i of s dead, if it
// has one.
//
//repro:noalloc
func (c *Core[K, V]) release(s *slots[K, V], i int) {
	if c.lay.inArena() {
		c.arena.release(c.lay, s.refs[i])
	}
}

// drainStashInto moves the first stashed entry (insertion order) whose
// candidate set covers bucket b into b, if b has a free slot. The entry's
// record stays where it is: the stash and the buckets share the arena.
//
//repro:noalloc
func (c *Core[K, V]) drainStashInto(b int, candsOf func(tag uint64) []uint32) {
	if c.load(b) >= c.slotsPerBucket {
		return
	}
	blk := c.stash.Load()
	for i := 0; i < int(blk.n.Load()); i++ {
		e := c.entryAt(&blk.slots, i)
		for _, cb := range candsOf(e.tag) {
			if int(cb) != b {
				continue
			}
			c.storeInBucket(b, &e)
			c.stashRemove(i)
			return
		}
	}
}

// NeedsRebuild reports whether the geometry's arena holds more dead
// bytes than live ones — and more than its slot arrays' bytes or
// maxChunk, whichever is less, so a rebuild, which costs a pass over
// the slots, is amortized over at least that many dead bytes. The
// caller answers with StartRebuild: Migrate re-appends every
// live pair into the new geometry's arena, and promotion drops the old
// one.
func (c *Core[K, V]) NeedsRebuild() bool {
	a := c.arena
	return a.dead() > a.live && a.dead() > min(c.slots.bytes(), maxChunk)
}

// StartResize begins an online resize to newBuckets buckets (same slots
// per bucket and stash capacity): it allocates the new-geometry Core that
// Migrate drains entries into. It panics if a resize is already in flight
// or the shape is invalid. Until the resize completes, Put and Delete
// need a key's candidates in both geometries, and a lookup that misses
// the old geometry probes Next's.
func (c *Core[K, V]) StartResize(newBuckets int) {
	if newBuckets <= 0 || newBuckets == c.buckets {
		panic(fmt.Sprintf("mchtable: resize %d -> %d buckets", c.buckets, newBuckets))
	}
	c.startMigration(newBuckets)
}

// StartRebuild begins a same-size resize: the rebuild that compacts the
// arena once NeedsRebuild reports it holding more dead bytes than live
// ones. It runs exactly like a resize — Migrate, Put and Delete through
// both geometries, promotion — with identical candidates in both.
func (c *Core[K, V]) StartRebuild() { c.startMigration(c.buckets) }

// startMigration allocates the Core a resize or rebuild migrates into.
func (c *Core[K, V]) startMigration(newBuckets int) {
	if c.next.Load() != nil {
		panic("mchtable: StartResize during an in-flight resize")
	}
	next := NewCore[K, V](newBuckets, c.slotsPerBucket, c.stashCap)
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
// entry lives in exactly one geometry (Put moves a key across before
// writing it), so a migrating key cannot already be there.
//
// A growth migration (more buckets) or a rebuild (the same count) always
// makes progress: an entry whose new-geometry candidates are all full goes
// to the new stash even past its capacity, so a resize can never wedge
// behind one unplaceable entry while chained doublings are blocked. After
// a doubling the overflow is temporary, since the promoted geometry's
// stash pressure immediately re-arms the next doubling, which re-places
// it; after a rebuild with growth disabled it stays until deletes drain
// it, and meanwhile Put rejects a new pair whose candidates are full. A
// shrink migration keeps the stash cap:
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
			idx := -1
			for s := 0; s < c.slotsPerBucket; s++ {
				if i := c.slot(b, s); c.occupied(&c.slots, i) {
					idx = i
					break
				}
			}
			if idx < 0 { // an empty bucket: sweep past it
				c.cursor++
				work++
				continue
			}
			e := c.entryAt(&c.slots, idx)
			k, v := c.pair(&e)
			if !next.place(candsOf(e.tag), k, v, e.tag, capped) {
				return work
			}
			c.clearSlot(idx)
			work++
			continue
		}
		// Buckets drained; move the stash back to front — deterministic
		// and O(1) per entry, where consuming the front would memmove the
		// remainder every step (quadratic on the oversized stashes a
		// saturated growth migration builds).
		blk := c.stash.Load()
		last := int(blk.n.Load()) - 1
		e := c.entryAt(&blk.slots, last)
		k, v := c.pair(&e)
		if !next.place(candsOf(e.tag), k, v, e.tag, capped) {
			return work
		}
		blk.n.Store(int32(last))
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
	c.slots, c.arena = next.slots, next.arena
	c.cursor = 0
	c.size.Store(next.size.Load())
	c.stash.Store(next.stash.Load())
	c.view.Store(next.view.Load())
	c.resizes.Add(1)
	c.next.Store(nil)
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
	for idx := 0; idx < c.buckets*c.slotsPerBucket; idx++ {
		if !c.occupied(&c.slots, idx) {
			continue
		}
		e := c.entryAt(&c.slots, idx)
		if k, v := c.pair(&e); !fn(k, v, e.tag) {
			return false
		}
	}
	blk := c.stash.Load()
	for i := 0; i < int(blk.n.Load()); i++ {
		e := c.entryAt(&blk.slots, i)
		if k, v := c.pair(&e); !fn(k, v, e.tag) {
			return false
		}
	}
	if next := c.next.Load(); next != nil {
		return next.Range(fn)
	}
	return true
}
