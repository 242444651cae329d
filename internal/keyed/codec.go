//repro:unsafeview in-place byte views of persisted values, gated by noIndirection (ViewCodec) or the reflect.Kind switch (CodecFor)

package keyed

// This file is the persistence counterpart of Hasher[K]: Codec[T] maps
// typed keys and values to and from the byte records internal/persist
// stores, with the same built-in coverage (little-endian integers,
// in-place strings, byte-view structs/arrays) and the same
// reflection-at-construction-only discipline — encoding and decoding a
// record never reflects and never allocates beyond what the value itself
// requires (strings must be copied out of the file's buffer; everything
// else is zero-copy in both directions).

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Codec translates values of type T to and from their persisted byte
// encoding. Append appends v's encoding to dst and returns the extended
// slice (so callers amortize one scratch buffer across a whole snapshot);
// Decode reads a value back from exactly the bytes one Append produced,
// erroring — never panicking — on foreign input of the wrong shape.
//
// A Codec must round-trip: Decode(Append(nil, v)) yields a value == v
// (for comparable T). Like Hasher, codecs are pure: no state, no
// reflection per call.
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Decode func(b []byte) (T, error)
}

// fixedIntCodec builds the Codec for a fixed-width little-endian integer
// encoding: width bytes, value widened/narrowed through uint64.
func fixedIntCodec[T any](width int, toU64 func(T) uint64, fromU64 func(uint64) T) Codec[T] {
	return Codec[T]{
		Append: func(dst []byte, v T) []byte {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], toU64(v))
			return append(dst, buf[:width]...)
		},
		Decode: func(b []byte) (T, error) {
			var zero T
			if len(b) != width {
				return zero, fmt.Errorf("keyed: decoding %T: got %d bytes, want %d", zero, len(b), width)
			}
			var buf [8]byte
			copy(buf[:], b)
			return fromU64(binary.LittleEndian.Uint64(buf[:])), nil
		},
	}
}

// Built-in codecs for the common key and value shapes. The integer
// encodings are explicit little-endian (portable across architectures,
// matching the byte order the built-in integer Hashers digest); the
// string codec stores the string's bytes as-is.
var (
	// Uint64Codec encodes a uint64 as its 8-byte little-endian form —
	// the same bytes Uint64 (the hasher) digests.
	Uint64Codec = fixedIntCodec[uint64](8,
		func(v uint64) uint64 { return v },
		func(u uint64) uint64 { return u })

	// IntCodec encodes an int as the 8-byte little-endian form of its
	// two's-complement 64-bit value (portable across 32/64-bit platforms).
	IntCodec = fixedIntCodec[int](8,
		func(v int) uint64 { return uint64(int64(v)) },
		func(u uint64) int { return int(int64(u)) })

	// StringCodec stores a string's bytes verbatim. Decode copies them
	// out of the record buffer, which the reader reuses for the next
	// record, so the result outlives it. A consumer that copies what it
	// keeps, as a Map's arena does, can decode views of the buffer
	// instead and allocate nothing per record; cmd/served does.
	StringCodec = Codec[string]{
		Append: func(dst []byte, v string) []byte { return append(dst, v...) },
		Decode: func(b []byte) (string, error) { return string(b), nil },
	}
)

// StringCodecOf returns the Codec for any string-backed type.
func StringCodecOf[T ~string]() Codec[T] {
	return Codec[T]{
		Append: func(dst []byte, v T) []byte { return append(dst, v...) },
		Decode: func(b []byte) (T, error) { return T(b), nil },
	}
}

// ViewCodec returns the Codec that stores T's in-memory bytes verbatim —
// the zero-copy path for fixed-size composite values (structs, arrays).
// It panics if T contains any indirection (pointers, strings, slices,
// maps, channels, funcs, interfaces): their bytes are addresses, which do
// not survive a process boundary.
//
// Two caveats, both documented rather than enforced: multi-byte fields
// are stored at native endianness (snapshots written and read on
// platforms of different byte orders will not interoperate — supply a
// custom Codec with an explicit encoding if that matters), and padding
// bytes inside T round through the file with undefined contents (harmless
// for correctness — == ignores padding — but snapshot bytes of padded
// types are not reproducible; keys already exclude padding via BytesOf's
// identity check).
func ViewCodec[T any]() Codec[T] {
	t := reflect.TypeFor[T]()
	if err := noIndirection(t); err != nil {
		panic(fmt.Sprintf("keyed: ViewCodec[%v]: %v", t, err))
	}
	size := int(t.Size())
	return Codec[T]{
		Append: func(dst []byte, v T) []byte {
			return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v)), size)...)
		},
		Decode: func(b []byte) (T, error) {
			var v T
			if len(b) != size {
				return v, fmt.Errorf("keyed: decoding %v: got %d bytes, want %d", t, len(b), size)
			}
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&v)), size), b)
			return v, nil
		},
	}
}

// noIndirection reports whether a type's in-memory bytes are pure values:
// fixed size, no addresses anywhere inside. Unlike byteIdentity (the
// hashing constraint) it allows floats and padding — a codec only needs
// round-trip fidelity, not byte-equal identity.
//
//repro:unsafegate
func noIndirection(t reflect.Type) error {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return noIndirection(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if err := noIndirection(t.Field(i).Type); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%v (kind %v) stores an address, not a value", t, t.Kind())
	}
}

// CodecFor returns the built-in Codec for T, mirroring ForType's hasher
// selection: explicit little-endian encodings for integer and float
// kinds, the verbatim byte codec for string kinds, and the byte view for
// fixed-size arrays and structs. It panics for types holding addresses
// (pointers, slices, maps, interfaces, ...); supply a custom Codec for
// those.
//
//repro:gated each arm's view is proven sound by its reflect.Kind: the kind fixes T's layout before any view is built
func CodecFor[T any]() Codec[T] {
	t := reflect.TypeFor[T]()
	switch t.Kind() {
	case reflect.String:
		return Codec[T]{
			Append: func(dst []byte, v T) []byte {
				// T's kind is string, so T and string share one layout.
				return append(dst, *(*string)(unsafe.Pointer(&v))...)
			},
			Decode: func(b []byte) (T, error) {
				s := string(b)
				return *(*T)(unsafe.Pointer(&s)), nil
			},
		}
	case reflect.Uint64:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return *(*uint64)(unsafe.Pointer(&v)) },
			func(u uint64) (v T) { *(*uint64)(unsafe.Pointer(&v)) = u; return })
	case reflect.Int64:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return uint64(*(*int64)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*int64)(unsafe.Pointer(&v)) = int64(u); return })
	case reflect.Int:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return uint64(int64(*(*int)(unsafe.Pointer(&v)))) },
			func(u uint64) (v T) { *(*int)(unsafe.Pointer(&v)) = int(int64(u)); return })
	case reflect.Uint:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return uint64(*(*uint)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*uint)(unsafe.Pointer(&v)) = uint(u); return })
	case reflect.Uintptr:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return uint64(*(*uintptr)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*uintptr)(unsafe.Pointer(&v)) = uintptr(u); return })
	case reflect.Int32:
		return fixedIntCodec[T](4,
			func(v T) uint64 { return uint64(uint32(*(*int32)(unsafe.Pointer(&v)))) },
			func(u uint64) (v T) { *(*int32)(unsafe.Pointer(&v)) = int32(uint32(u)); return })
	case reflect.Uint32:
		return fixedIntCodec[T](4,
			func(v T) uint64 { return uint64(*(*uint32)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*uint32)(unsafe.Pointer(&v)) = uint32(u); return })
	case reflect.Int16:
		return fixedIntCodec[T](2,
			func(v T) uint64 { return uint64(uint16(*(*int16)(unsafe.Pointer(&v)))) },
			func(u uint64) (v T) { *(*int16)(unsafe.Pointer(&v)) = int16(uint16(u)); return })
	case reflect.Uint16:
		return fixedIntCodec[T](2,
			func(v T) uint64 { return uint64(*(*uint16)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*uint16)(unsafe.Pointer(&v)) = uint16(u); return })
	case reflect.Int8:
		return fixedIntCodec[T](1,
			func(v T) uint64 { return uint64(uint8(*(*int8)(unsafe.Pointer(&v)))) },
			func(u uint64) (v T) { *(*int8)(unsafe.Pointer(&v)) = int8(uint8(u)); return })
	case reflect.Uint8:
		return fixedIntCodec[T](1,
			func(v T) uint64 { return uint64(*(*uint8)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*uint8)(unsafe.Pointer(&v)) = uint8(u); return })
	case reflect.Bool:
		return fixedIntCodec[T](1,
			func(v T) uint64 {
				if *(*bool)(unsafe.Pointer(&v)) {
					return 1
				}
				return 0
			},
			func(u uint64) (v T) { *(*bool)(unsafe.Pointer(&v)) = u != 0; return })
	case reflect.Float64:
		return fixedIntCodec[T](8,
			func(v T) uint64 { return math.Float64bits(*(*float64)(unsafe.Pointer(&v))) },
			func(u uint64) (v T) { *(*float64)(unsafe.Pointer(&v)) = math.Float64frombits(u); return })
	case reflect.Float32:
		return fixedIntCodec[T](4,
			func(v T) uint64 { return uint64(math.Float32bits(*(*float32)(unsafe.Pointer(&v)))) },
			func(u uint64) (v T) { *(*float32)(unsafe.Pointer(&v)) = math.Float32frombits(uint32(u)); return })
	case reflect.Array, reflect.Struct:
		return ViewCodec[T]()
	default:
		panic(fmt.Sprintf("keyed: no built-in codec for %v (kind %v); supply a custom Codec[%v]", t, t.Kind(), t))
	}
}
