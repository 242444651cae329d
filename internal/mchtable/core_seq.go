// Seq-mode primitives: the atomic storage protocol that lets
// internal/cmap's seqlock readers probe a Core with no lock held.
//
// The scheme is a classic seqlock with one twist imposed by the Go
// memory model: a C seqlock lets readers load torn plain data and
// discard it after the generation check, but in Go a plain load racing a
// plain store is a data race regardless of whether the value is used —
// the race detector (and the compiler) may assume it never happens. So
// in seq mode *both* sides go through sync/atomic: a slot's ref is a
// 64-bit atomic word (its used flag a 32-bit one, when K and V are both
// inline), and inline keys and values are stored and loaded as 32-bit
// atomic words. Readers never load a slot's full tag: the ref carries
// the 16 tag bits a probe filters on. Word-by-word assembly means a
// reader can still observe half of one write and half of another — that
// is exactly the tear the caller's generation validation rejects — but
// every individual access is race-free and every probe stays in bounds,
// so a torn read can produce a wrong value, never a fault.
//
// The type rule (layoutOf, applied by NewCore) makes this sound for
// every Core:
//
//   - an inline K or V is pointer-free — raw word stores would bypass the
//     garbage collector's write barriers — and its size is a multiple of
//     4 bytes, so values tile exactly into 32-bit words and every slot
//     field offset is 4-aligned on every platform (32-bit included, which
//     is why inline fields move as 32-bit and not 64-bit words);
//   - a string-kind K or V, or a []byte V, lives in the geometry's arena,
//     and the slot holds only its 64-bit ref (and, for writers, its tag).
//
// The publication invariant: a record's bytes are written before the ref
// that names them is stored with one atomic 64-bit store, and never
// written after; inline fields are stored before the ref (or, inline,
// the used flag). A reader loads the ref, compares its tag bits, and only
// then reads key bytes, bounds-checking the ref against the chunk table
// it loaded atomically. A stale ref — one its slot has since replaced —
// names bytes that are still intact, so it produces at worst a value the
// generation check rejects.

//repro:unsafeview word-granular views of inline slot fields, which layoutOf proves pointer-free and word-tiling at NewCore

package mchtable

import (
	"sync/atomic"
	"unsafe"
)

// storeWords publishes src into dst as aligned 32-bit atomic stores. dst
// must point at an inline field (pointer-free, size%4 == 0 — layoutOf's
// rule).
//
//repro:seqaccessor
//repro:noalloc
//repro:gated layoutOf ran in NewCore; only inline (pointer-free, word-tiling) fields are stored word by word
func storeWords[T any](dst, src *T) {
	d := unsafe.Pointer(dst)
	s := unsafe.Pointer(src)
	for off := uintptr(0); off < unsafe.Sizeof(*src); off += 4 {
		atomic.StoreUint32((*uint32)(unsafe.Add(d, off)), *(*uint32)(unsafe.Add(s, off)))
	}
}

// loadWords reads src word-atomically into dst. The assembled value is
// coherent only if the caller's seqlock validation succeeds afterwards;
// mid-write it may interleave words from different stores.
//
//repro:seqaccessor
//repro:noalloc
//repro:gated layoutOf ran in NewCore; only inline (pointer-free, word-tiling) fields are loaded word by word
func loadWords[T any](dst, src *T) {
	d := unsafe.Pointer(dst)
	s := unsafe.Pointer(src)
	for off := uintptr(0); off < unsafe.Sizeof(*dst); off += 4 {
		*(*uint32)(unsafe.Add(d, off)) = atomic.LoadUint32((*uint32)(unsafe.Add(s, off)))
	}
}

// setKey writes an inline key with the mode's store discipline.
//
//repro:noalloc
func (c *Core[K, V]) setKey(dst *K, k K) {
	if c.seqMode {
		storeWords(dst, &k)
	} else {
		*dst = k
	}
}

// setVal writes an inline value with the mode's store discipline.
//
//repro:noalloc
func (c *Core[K, V]) setVal(dst *V, v V) {
	if c.seqMode {
		storeWords(dst, &v)
	} else {
		*dst = v
	}
}

// setRef writes a slot's ref — the word that publishes or clears it —
// with the mode's store discipline.
//
//repro:noalloc
func (c *Core[K, V]) setRef(p *uint64, ref uint64) {
	if c.seqMode {
		atomic.StoreUint64(p, ref)
	} else {
		*p = ref
	}
}

// putSlot writes e into slot i of s in publication order: the tag, which
// seq readers never read, and inline fields, then the ref (or, for an
// inline layout, the used flag).
//
//repro:noalloc
func (c *Core[K, V]) putSlot(s *slots[K, V], i int, e *entry[K, V]) {
	if c.lay&keyInArena == 0 {
		c.setKey(&s.keys[i], e.key)
	}
	if c.lay&valInArena == 0 {
		c.setVal(&s.vals[i], e.val)
	}
	s.tags[i] = e.tag
	if c.lay.inArena() {
		c.setRef(&s.refs[i], e.ref)
	} else {
		c.setUsed(&s.used[i], 1)
	}
}

// setUsed writes an inline layout's occupancy flag with the mode's store
// discipline.
//
//repro:noalloc
func (c *Core[K, V]) setUsed(u *uint32, v uint32) {
	if c.seqMode {
		atomic.StoreUint32(u, v)
	} else {
		*u = v
	}
}

// setCount writes a bucket's occupancy counter with the mode's store
// discipline (the writer computes the new value under its exclusion).
//
//repro:noalloc
func (c *Core[K, V]) setCount(b int, v uint32) {
	if c.seqMode {
		atomic.StoreUint32(&c.counts[b], v)
	} else {
		c.counts[b] = v
	}
}

// loadRef reads a slot's ref atomically.
//
//repro:seqaccessor
//repro:noalloc
func loadRef(p *uint64) uint64 { return atomic.LoadUint64(p) }

// SeqView is the published read snapshot of one geometry: the bucket
// count, the slot-array slice headers and the geometry's arena,
// immutable once published through Core.view. Readers fetch it with
// Core.View (one atomic load) and probe it with SeqGet; because the
// headers never mutate and candidate buckets are derived for a deriver
// whose N matches Buckets, every probe into the view is in bounds no
// matter how torn the rest of the read is.
//
// The slice fields' elements are the reader-visible words of the seqlock
// protocol: every element access must go through sync/atomic (the slice
// headers themselves are immutable once published). The ints, the
// layout and the arena pointer are immutable, read plainly.
type SeqView[K comparable, V any] struct {
	buckets int
	slots   int
	lay     layout
	arena   *arena
	//repro:seqguarded
	refs []uint64
	//repro:seqguarded
	used []uint32
	//repro:seqguarded
	keys []K
	//repro:seqguarded
	vals []V
	//repro:seqguarded
	counts []uint32
}

// Buckets returns the view's bucket count — the geometry readers must
// match their candidate deriver against before probing.
func (v *SeqView[K, V]) Buckets() int { return v.buckets }

// Slots returns the view's slots per bucket.
func (v *SeqView[K, V]) Slots() int { return v.slots }

// ArenaBytes returns the bytes allocated in the geometry's arena chunks
// (one atomic load).
func (v *SeqView[K, V]) ArenaBytes() int64 { return v.arena.size.Load() }

// View returns the current published read view (one atomic load). Only
// NewCore and resize promotion publish a new one.
func (c *Core[K, V]) View() *SeqView[K, V] { return c.view.Load() }

// SeqGet probes v's buckets and then c's stash for key, whose tag is tag,
// using only atomic reads — safe to run concurrently with a writer, with
// no lock held. cands are key's candidate buckets for v's geometry. It
// reports the probe depth as GetDepth does. The result is meaningful
// only if the caller's seqlock generation validation succeeds after the
// call: mid-write, SeqGet can observe torn values and report a wrong or
// missing pair, but it never faults.
//
//repro:noalloc
func (c *Core[K, V]) SeqGet(v *SeqView[K, V], cands []uint32, key K, tag uint64) (V, int, bool) {
	if v.lay.inArena() {
		return c.seqGetArena(v, cands, key, tag)
	}
	for depth, b := range cands {
		if int(b) >= v.buckets {
			continue
		}
		for i := int(b) * v.slots; i < (int(b)+1)*v.slots; i++ {
			if atomic.LoadUint32(&v.used[i]) == 0 {
				continue
			}
			var k K
			loadWords(&k, &v.keys[i])
			if k == key {
				var val V
				loadWords(&val, &v.vals[i])
				return val, depth, true
			}
		}
	}
	blk := c.stash.Load()
	for i := 0; i < min(int(blk.n.Load()), len(blk.used)); i++ {
		var k K
		loadWords(&k, &blk.keys[i])
		if k == key {
			var val V
			loadWords(&val, &blk.vals[i])
			return val, len(cands), true
		}
	}
	var zero V
	return zero, -1, false
}

// seqGetArena is SeqGet for a layout with arena fields: each slot's ref
// is loaded once, and its tag bits compared before any record byte is
// read.
//
//repro:noalloc
func (c *Core[K, V]) seqGetArena(v *SeqView[K, V], cands []uint32, key K, tag uint64) (V, int, bool) {
	var kstr string
	if v.lay&keyInArena != 0 {
		kstr = keyString(&key)
	}
	t := v.arena.table.Load()
	rt := refTag(tag)
	for depth, b := range cands {
		if int(b) >= v.buckets {
			continue
		}
		for i := int(b) * v.slots; i < (int(b)+1)*v.slots; i++ {
			if ref := loadRef(&v.refs[i]); ref&refTagMask == rt {
				if val, ok := seqMatch(v.lay, t, ref, &v.keys, &v.vals, i, key, kstr); ok {
					return val, depth, true
				}
			}
		}
	}
	blk := c.stash.Load()
	bt := blk.arena.table.Load()
	for i := 0; i < min(int(blk.n.Load()), len(blk.refs)); i++ {
		if ref := loadRef(&blk.refs[i]); ref&refTagMask == rt {
			if val, ok := seqMatch(v.lay, bt, ref, &blk.keys, &blk.vals, i, key, kstr); ok {
				return val, len(cands), true
			}
		}
	}
	var zero V
	return zero, -1, false
}

// seqMatch finishes an arena-layout seq probe of slot i, whose ref (with
// matching tag bits) is ref: it reports the slot's value if ref names a
// record and the slot holds key. kstr is key as a string when K lives in
// the arena, whose chunk table is t.
//
//repro:seqaccessor
//repro:noalloc
func seqMatch[K comparable, V any](lay layout, t *chunkTable, ref uint64, keys *[]K, vals *[]V, i int, key K, kstr string) (V, bool) {
	var zero V
	if ref == 0 {
		return zero, false
	}
	if lay&keyInArena == 0 {
		var k K
		loadWords(&k, &(*keys)[i])
		if k != key {
			return zero, false
		}
	}
	kb, vb, ok := t.fields(lay, ref)
	if !ok || lay&keyInArena != 0 && viewString(kb) != kstr {
		return zero, false
	}
	if lay&valInArena != 0 {
		return valView[V](lay, vb), true
	}
	var val V
	loadWords(&val, &(*vals)[i])
	return val, true
}

// Prefetch touches the first word of each candidate bucket's control
// line (its refs, or its used flags) and of its inline key and value
// lines with atomic loads, so a batched lookup's random cache misses
// overlap instead of serializing probe-by-probe. It returns a checksum
// the caller must feed to a non-inlined sink (cmap's keepAlive) so the
// compiler cannot consider the loads dead.
//
//repro:noalloc
//repro:gated first-word loads touch only inline fields, which layoutOf proves 4-aligned and word-tiling
func (v *SeqView[K, V]) Prefetch(cands []uint32) uint32 {
	var zk K
	var zv V
	kw := v.lay&keyInArena == 0 && unsafe.Sizeof(zk) > 0
	vw := v.lay&valInArena == 0 && unsafe.Sizeof(zv) > 0
	var sum uint32
	for _, b := range cands {
		if int(b) >= v.buckets {
			continue
		}
		base := int(b) * v.slots
		if v.lay.inArena() {
			sum += uint32(loadRef(&v.refs[base]))
		} else {
			sum += atomic.LoadUint32(&v.used[base])
		}
		if kw {
			sum += atomic.LoadUint32((*uint32)(unsafe.Pointer(&v.keys[base])))
		}
		if vw {
			sum += atomic.LoadUint32((*uint32)(unsafe.Pointer(&v.vals[base])))
		}
	}
	return sum
}

// AddLoads folds the view's per-bucket occupancy histogram into dst,
// where dst[load] accumulates the bucket count at that load; dst must
// hold Slots()+1 entries. Counters are read atomically, so a seqlock
// reader can histogram a live geometry; values a writer is mid-way
// through changing are simply the old or new counter (32-bit loads never
// tear), and the caller's generation check rejects inconsistent totals.
//
//repro:noalloc
func (v *SeqView[K, V]) AddLoads(dst []int64) {
	for i := range v.counts {
		n := int(atomic.LoadUint32(&v.counts[i]))
		if n < len(dst) {
			dst[n]++
		}
	}
}
