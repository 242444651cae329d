// Seq-mode primitives: the word-atomic storage protocol that lets
// internal/cmap's seqlock readers probe a Core with no lock held.
//
// The scheme is a classic seqlock with one twist imposed by the Go
// memory model: a C seqlock lets readers load torn plain data and
// discard it after the generation check, but in Go a plain load racing a
// plain store is a data race regardless of whether the value is used —
// the race detector (and the compiler) may assume it never happens. So
// in seq mode *both* sides go through sync/atomic at 32-bit word
// granularity: writers publish every reader-visible word with
// atomic.StoreUint32, readers assemble values from atomic.LoadUint32.
// Word-by-word assembly means a reader can still observe half of one
// write and half of another — that is exactly the tear the caller's
// generation validation rejects — but every individual access is
// race-free and every probe stays in bounds, so a torn read can produce
// a wrong value, never a fault.
//
// Two type-level preconditions make the raw word copies sound, checked
// by SeqCapable and enforced by Core.EnableSeq:
//
//   - no pointers: unsafe word stores bypass the garbage collector's
//     write barriers, and a torn pointer could escape validation into a
//     dereference. Pointerful K/V keep plain stores and mutex readers.
//   - size ≡ 0 (mod 4): values tile exactly into 32-bit words, and every
//     slot or stash field offset is then 4-aligned, so the per-word
//     atomics are aligned on every platform (32-bit included — which is
//     also why the granularity is 32 and not 64 bits).

//repro:unsafeview word-granular views of seq-capable slot storage, gated by SeqCapable at EnableSeq time

package mchtable

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// SeqCapable reports whether T's values may be stored under the seq-mode
// word-atomic protocol (see the file comment for the two conditions).
//
//repro:unsafegate
func SeqCapable[T any]() bool {
	t := reflect.TypeFor[T]()
	return t.Size()%4 == 0 && pointerFree(t)
}

// pointerFree walks t's layout and reports whether no word of a value
// can hold a pointer the garbage collector tracks.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// storeWords publishes src into dst as aligned 32-bit atomic stores. dst
// must point at a seq-capable value (pointer-free, size%4 == 0 — the
// caller guarantees this via EnableSeq's gate).
//
//repro:seqaccessor
//repro:noalloc
//repro:gated SeqCapable ran in EnableSeq; seq mode is never entered for pointerful or oddly-sized T
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
//repro:gated SeqCapable ran in EnableSeq; seq mode is never entered for pointerful or oddly-sized T
func loadWords[T any](dst, src *T) {
	d := unsafe.Pointer(dst)
	s := unsafe.Pointer(src)
	for off := uintptr(0); off < unsafe.Sizeof(*dst); off += 4 {
		*(*uint32)(unsafe.Add(d, off)) = atomic.LoadUint32((*uint32)(unsafe.Add(s, off)))
	}
}

// setKey writes a bucket-slot key with the mode's store discipline.
//
//repro:noalloc
func (c *Core[K, V]) setKey(dst *K, k K) {
	if c.seqMode {
		storeWords(dst, &k)
	} else {
		*dst = k
	}
}

// setVal writes a bucket-slot or stash value with the mode's store
// discipline.
//
//repro:noalloc
func (c *Core[K, V]) setVal(dst *V, v V) {
	if c.seqMode {
		storeWords(dst, &v)
	} else {
		*dst = v
	}
}

// setUsed writes a slot's occupancy flag with the mode's store discipline.
//
//repro:noalloc
func (c *Core[K, V]) setUsed(idx int, u uint32) {
	if c.seqMode {
		atomic.StoreUint32(&c.used[idx], u)
	} else {
		c.used[idx] = u
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

// setStashEntry writes a published stash entry with the mode's store
// discipline. Seq readers never read tags (only probes under the shard
// lock do), so they stay plain in both modes.
//
//repro:noalloc
func (c *Core[K, V]) setStashEntry(dst *stashEntry[K, V], e stashEntry[K, V]) {
	if c.seqMode {
		storeWords(&dst.key, &e.key)
		storeWords(&dst.val, &e.val)
		dst.tag = e.tag
	} else {
		*dst = e
	}
}

// SeqView is the published read snapshot of one geometry: the bucket
// count and the bucket-array slice headers, immutable once published
// through Core.view. Readers fetch it with Core.View (one atomic load)
// and probe it with SeqGet; because the headers never mutate and
// candidate buckets are derived for a deriver whose N matches Buckets,
// every probe into the view is in bounds no matter how torn the rest of
// the read is.
//
// The slice fields' elements are the reader-visible words of the seqlock
// protocol: every element access must go through sync/atomic (the slice
// headers themselves are immutable once published). buckets and slots
// are immutable ints, read plainly.
type SeqView[K comparable, V any] struct {
	buckets int
	slots   int
	//repro:seqguarded
	keys []K
	//repro:seqguarded
	vals []V
	//repro:seqguarded
	used []uint32
	//repro:seqguarded
	counts []uint32
}

// Buckets returns the view's bucket count — the geometry readers must
// match their candidate deriver against before probing.
func (v *SeqView[K, V]) Buckets() int { return v.buckets }

// Slots returns the view's slots per bucket.
func (v *SeqView[K, V]) Slots() int { return v.slots }

// View returns the current published read view (one atomic load). Only
// NewCore and resize promotion publish a new one.
func (c *Core[K, V]) View() *SeqView[K, V] { return c.view.Load() }

// SeqGet probes v's buckets and then c's stash for key using only atomic
// word reads — safe to run concurrently with a writer, with no lock
// held. cands are key's candidate buckets for v's geometry. The result
// is meaningful only if the caller's seqlock generation validation
// succeeds after the call: mid-write, SeqGet can observe torn values and
// report a wrong or missing pair, but it never faults.
//
//repro:noalloc
func (c *Core[K, V]) SeqGet(v *SeqView[K, V], cands []uint32, key K) (V, bool) {
	for _, b := range cands {
		if int(b) >= v.buckets {
			continue
		}
		base := int(b) * v.slots
		for s := 0; s < v.slots; s++ {
			idx := base + s
			if atomic.LoadUint32(&v.used[idx]) == 0 {
				continue
			}
			var k K
			loadWords(&k, &v.keys[idx])
			if k == key {
				var val V
				loadWords(&val, &v.vals[idx])
				return val, true
			}
		}
	}
	blk := c.stash.Load()
	n := int(blk.n.Load())
	if n > len(blk.arr) {
		n = len(blk.arr)
	}
	for i := 0; i < n; i++ {
		e := &blk.arr[i]
		var k K
		loadWords(&k, &e.key)
		if k == key {
			var val V
			loadWords(&val, &e.val)
			return val, true
		}
	}
	var zero V
	return zero, false
}

// Prefetch touches the first word of each candidate bucket's used, key
// and value lines with atomic loads, so a batched lookup's random cache
// misses overlap instead of serializing probe-by-probe. It returns a
// checksum the caller should feed to keepAlive32 so the compiler cannot
// consider the loads dead.
//
//repro:noalloc
//repro:gated first-word loads are issued only when the kw/vw alignment checks prove the element 4-aligned
func (v *SeqView[K, V]) Prefetch(cands []uint32) uint32 {
	var zk K
	var zv V
	// First-word loads are only issued for element types whose slice
	// elements are always 4-aligned (by size or by alignment) — true for
	// every seq-capable type, and checked so single-threaded GetBatch can
	// prefetch odd-shaped or pointerful K/V safely too (a load of half a
	// pointer is still just a load of our own backing array).
	kw := unsafe.Sizeof(zk) >= 4 && (unsafe.Sizeof(zk)%4 == 0 || unsafe.Alignof(zk)%4 == 0)
	vw := unsafe.Sizeof(zv) >= 4 && (unsafe.Sizeof(zv)%4 == 0 || unsafe.Alignof(zv)%4 == 0)
	var sum uint32
	for _, b := range cands {
		if int(b) >= v.buckets {
			continue
		}
		base := int(b) * v.slots
		sum += atomic.LoadUint32(&v.used[base])
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

// keepAlive32 anchors a prefetch checksum so the loads that produced it
// are not eliminated.
//
//go:noinline
func keepAlive32(uint32) {}
