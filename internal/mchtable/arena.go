// The per-geometry byte arena: out-of-line storage for the string-kind
// and []byte fields of a Core's pairs, so that every slot array holds
// only pointer-free words.
//
// Each geometry (a Core and, mid-resize, its next Core) owns one arena.
// A pair whose K is a string kind, or whose V is a string kind or
// []byte, is stored as one record appended to the arena:
//
//	[uvarint len(key)]   if K is in the arena
//	[uvarint len(value)] if V is in the arena
//	[key bytes][value bytes]
//
// and the slot keeps a 64-bit ref to it: 16 bits of the pair's tag in
// bits 63–48 (refTag), the chunk index plus one in bits 47–32 and the
// record's offset in the low 32. Ref 0 marks an empty slot. Fields of
// the other kind (pointer-free, size a multiple of 4) stay inline in the
// slot arrays.
//
// The arena is append-only. A record's bytes are written before the ref
// that names them is published with one atomic 64-bit store, and they
// are never written again, so:
//
//   - a lock-free reader that loads a ref atomically reads bytes that
//     were complete before the ref existed — a stale ref (one its slot
//     has since replaced) names bytes that are still intact, and the
//     caller's seqlock check rejects whatever it read;
//   - a view handed out by Get, GetBatch or Range stays byte-identical
//     for as long as the caller holds it: the garbage collector keeps a
//     chunk alive while any view points into it.
//
// Overwrites and deletes leave dead bytes behind. Nothing is reclaimed
// in place: migration re-appends every moved pair into the new
// geometry's arena, so each doubling compacts, and a geometry whose dead
// bytes outgrow its live ones asks for a same-size rebuild
// (Core.NeedsRebuild), which internal/cmap runs through the ordinary
// resize path.
//
// Chunks start at minChunk bytes and grow geometrically to maxChunk; a
// record larger than that gets a chunk of its own. An arena grows by
// adding chunks and never copies one. An empty geometry allocates none.

//repro:unsafeview string and []byte views of immutable arena records, and string/[]byte-kind K and V read as their headers; layoutOf proves the kinds at NewCore

package mchtable

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Arena chunk sizes: the first chunk of a geometry, and the size past
// which chunks stop doubling.
const (
	minChunk = 1 << 10
	maxChunk = 1 << 20
)

// Ref fields: the tag bits a ref carries, and the chunk field's mask (a
// geometry's arena holds at most refChunkMask chunks).
const (
	refTagMask   = 0xffff << 48
	refChunkMask = 0xffff
)

// refTag returns the tag bits a ref carries for a pair whose tag is tag:
// 16 bits of it, mixed so every tag bit contributes, in the ref's top 16
// bits.
//
//repro:noalloc
func refTag(tag uint64) uint64 { return tag * 0x9e3779b97f4a7c15 & refTagMask }

// layout records which of a Core's K and V live in its arena. It is
// fixed at construction by layoutOf.
type layout uint8

const (
	keyInArena layout = 1 << iota // K is a string kind
	valInArena                    // V is a string kind or []byte
	valIsSlice                    // V is []byte (with valInArena)
)

// inArena reports whether any field of the pair lives in the arena.
func (l layout) inArena() bool { return l&(keyInArena|valInArena) != 0 }

// layoutOf applies the type rule to K and V. Each must be pointer-free
// with a size that is a multiple of 4 bytes (stored inline, written as
// 32-bit words), or a string kind (K or V), or []byte (V only), which
// live in the arena. Any other type panics, with the rule in the
// message.
//
//repro:unsafegate
func layoutOf[K comparable, V any]() layout {
	var lay layout
	switch kt := reflect.TypeFor[K](); {
	case inlineType(kt):
	case kt.Kind() == reflect.String:
		lay |= keyInArena
	default:
		panic(fmt.Sprintf("mchtable: key type %v: a key must be pointer-free with a size that is a multiple of 4 bytes, or a string kind", kt))
	}
	switch vt := reflect.TypeFor[V](); {
	case inlineType(vt):
	case vt.Kind() == reflect.String:
		lay |= valInArena
	case vt.Kind() == reflect.Slice && vt.Elem().Kind() == reflect.Uint8:
		lay |= valInArena | valIsSlice
	default:
		panic(fmt.Sprintf("mchtable: value type %v: a value must be pointer-free with a size that is a multiple of 4 bytes, a string kind, or []byte", vt))
	}
	return lay
}

// inlineType reports whether t's values can live in a slot: no word
// the garbage collector tracks, and a size that tiles into the 32-bit
// words the seqlock protocol stores and loads atomically.
func inlineType(t reflect.Type) bool { return t.Size()%4 == 0 && pointerFree(t) }

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

// chunkTable is an arena's published chunk list. It is immutable once
// stored: adding a chunk publishes a new table.
type chunkTable struct{ chunks [][]byte }

// arena is one geometry's record store. table is what lock-free readers
// load; the rest is writer-side state, guarded by the writer's
// exclusion (size is atomic so Stats can read it without the lock).
type arena struct {
	table atomic.Pointer[chunkTable]
	cur   []byte       // newest chunk; len = bytes appended to it
	size  atomic.Int64 // bytes allocated in chunks
	used  int64        // bytes appended, live or dead
	live  int64        // bytes of the records live slots name
}

// newArena returns an empty arena: no chunk until the first record.
func newArena() *arena {
	a := &arena{}
	a.table.Store(&chunkTable{})
	return a
}

// dead returns the bytes of records no slot names any more.
func (a *arena) dead() int64 { return a.used - a.live }

// put appends a record holding the arena fields of a pair — k when lay
// holds keyInArena, v when it holds valInArena — and returns its ref.
//
//repro:noalloc
func (a *arena) put(lay layout, k, v string) uint64 {
	n := recordLen(lay, len(k), len(v))
	ref, buf := a.alloc(n)
	p := 0
	if lay&keyInArena != 0 {
		p += binary.PutUvarint(buf, uint64(len(k)))
	}
	if lay&valInArena != 0 {
		p += binary.PutUvarint(buf[p:], uint64(len(v)))
	}
	p += copy(buf[p:], k)
	copy(buf[p:], v)
	a.live += int64(n)
	return ref
}

// release marks the record ref names dead: no slot names it any more.
// Its bytes stay as they are, for readers and views that still hold it.
func (a *arena) release(lay layout, ref uint64) {
	if !lay.inArena() {
		return
	}
	if k, v, ok := a.table.Load().fields(lay, ref); ok {
		a.live -= int64(recordLen(lay, len(k), len(v)))
	}
}

// alloc reserves n bytes at the arena's tail and returns their ref (with
// no tag bits) and the buffer to fill.
//
//repro:noalloc
func (a *arena) alloc(n int) (uint64, []byte) {
	if cap(a.cur)-len(a.cur) < n {
		a.grow(n)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	a.used += int64(n)
	chunk := uint64(len(a.table.Load().chunks)) // the newest chunk's index + 1
	return chunk<<32 | uint64(off), a.cur[off : off+n : off+n]
}

// grow adds a chunk with room for n bytes: as large as every chunk so
// far (so chunk sizes double), within [minChunk, maxChunk], and never
// smaller than n.
func (a *arena) grow(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("mchtable: a %d-byte record exceeds the arena's 4 GiB record limit", n))
	}
	old := a.table.Load().chunks
	if len(old) == refChunkMask {
		panic(fmt.Sprintf("mchtable: a geometry's arena is limited to %d chunks", refChunkMask))
	}
	size := max(min(int(a.size.Load()), maxChunk), minChunk, n)
	c := make([]byte, size) //repro:allocok arena growth: one chunk per doubling of the arena, then per maxChunk bytes
	a.cur = c[:0]
	a.table.Store(&chunkTable{chunks: append(old[:len(old):len(old)], c)}) //repro:allocok the table is republished per chunk, never per record
	a.size.Add(int64(size))
}

// fields returns views of the key and value bytes of the record ref
// names (a nil view for a field the layout keeps inline), or ok=false if
// ref does not name a record of t. Every offset is checked against the
// chunk, so a ref read from another geometry's slot cannot fault; the
// seqlock check rejects whatever it produced.
//
//repro:noalloc
func (t *chunkTable) fields(lay layout, ref uint64) (k, v []byte, ok bool) {
	i := ref>>32&refChunkMask - 1
	if i >= uint64(len(t.chunks)) {
		return nil, nil, false
	}
	c := t.chunks[i]
	p := uint64(uint32(ref))
	var kl, vl uint64
	if lay&keyInArena != 0 {
		if kl, p, ok = uvarintAt(c, p); !ok {
			return nil, nil, false
		}
	}
	if lay&valInArena != 0 {
		if vl, p, ok = uvarintAt(c, p); !ok {
			return nil, nil, false
		}
	}
	if p > uint64(len(c)) || kl > uint64(len(c))-p || vl > uint64(len(c))-p-kl {
		return nil, nil, false
	}
	k = c[p : p+kl : p+kl]
	v = c[p+kl : p+kl+vl : p+kl+vl]
	return k, v, true
}

// uvarintAt decodes the uvarint at c[p:], returning it and the offset
// past it; ok is false if it runs off c or overflows.
//
//repro:noalloc
func uvarintAt(c []byte, p uint64) (x, next uint64, ok bool) {
	for shift := uint(0); shift < 64 && p < uint64(len(c)); shift += 7 {
		b := c[p]
		p++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, p, true
		}
	}
	return 0, 0, false
}

// uvarintLen returns the encoded length of n as a uvarint.
func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// recordLen is the arena bytes of a record holding kl key bytes and vl
// value bytes under lay.
func recordLen(lay layout, kl, vl int) int {
	n := kl + vl
	if lay&keyInArena != 0 {
		n += uvarintLen(kl)
	}
	if lay&valInArena != 0 {
		n += uvarintLen(vl)
	}
	return n
}

// keyString views a string-kind key as a string.
//
//repro:noalloc
//repro:gated layoutOf proved K a string kind before any key reaches the arena
func keyString[K any](k *K) string { return *(*string)(unsafe.Pointer(k)) }

// valString views a string-kind or []byte value's bytes as a string,
// for copying into a record.
//
//repro:noalloc
//repro:gated layoutOf proved V a string kind, or []byte when valIsSlice is set
func valString[V any](lay layout, v *V) string {
	if lay&valIsSlice != 0 {
		b := *(*[]byte)(unsafe.Pointer(v))
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return *(*string)(unsafe.Pointer(v))
}

// viewString views record bytes as a string. The bytes are immutable,
// which is what unsafe.String requires of them.
//
//repro:noalloc
//repro:gated record bytes are never written after their ref is published
func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// keyView returns a K that views record bytes.
//
//repro:noalloc
//repro:gated layoutOf proved K a string kind before any record holds a key
func keyView[K any](b []byte) K {
	s := viewString(b)
	return *(*K)(unsafe.Pointer(&s))
}

// valView returns a V that views record bytes: a string, or a []byte
// capped at its length so an append cannot reach the next record.
//
//repro:noalloc
//repro:gated layoutOf proved V a string kind, or []byte when valIsSlice is set
func valView[V any](lay layout, b []byte) V {
	if lay&valIsSlice != 0 {
		return *(*V)(unsafe.Pointer(&b))
	}
	s := viewString(b)
	return *(*V)(unsafe.Pointer(&s))
}
