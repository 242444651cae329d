//repro:unsafeview string views of wire frame and recovery record bytes, handed to the map while their buffer lives; the map copies whatever it keeps into its arena

package main

import (
	"sync"
	"unsafe"

	"repro"
)

// keyCodec and bytesCodec encode keys and values verbatim. Decode
// returns a view of the bytes it is given without copying, so recovery
// allocates nothing per record: the snapshot load and the WAL replay
// both decode a record from copies that live in the record's window
// until the record is placed, and pass the decoded key and value only
// to the map's put body and Delete (and the load's one-time hasher
// check), and the map copies what it keeps into its arena.
var (
	keyCodec = repro.Codec[string]{
		Append: func(dst []byte, k string) []byte { return append(dst, k...) },
		Decode: func(b []byte) (string, error) { return view(b), nil },
	}
	bytesCodec = repro.Codec[[]byte]{
		Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
)

// openStore opens (or recovers) served's durable map in dir with the
// codecs above.
func openStore(dir string, opts ...repro.Option) (*servedMap, error) {
	return repro.OpenOf[string, []byte](dir, repro.HasherFor[string](), keyCodec, bytesCodec, opts...)
}

// backend adapts the durable map to the wire server's Backend. Keys and
// values arrive as views of a frame buffer that the very next frame
// reuses; they cross to the map as string views with no copy, because
// the map never keeps a lookup key and copies a stored key and value
// into its arena. Values returned are views of the map's arena: their
// bytes never change, so they are safe to hand back as reply views.
type backend struct {
	m *repro.DurableMap[string, []byte]
	// keyScratch pools []string view buffers for GetBatch: the adapter is
	// shared by every connection goroutine.
	keyScratch sync.Pool // *[]string
}

// view returns b's bytes as a string without copying. The string is
// valid only while the buffer is: for the length of one backend call,
// or while a recovered record waits in its window to be placed.
//
//repro:noalloc
//repro:gated a byte slice has no pointer fields to hide; the view is used only while its buffer is live
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

//repro:noalloc
func (b *backend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	skp, _ := b.keyScratch.Get().(*[]string)
	if skp == nil {
		skp = new([]string) //repro:allocok pool miss: one buffer per connection goroutine, reused after
	}
	sk := (*skp)[:0]
	for _, k := range keys {
		sk = append(sk, view(k))
	}
	n := b.m.GetBatch(sk, vals[:len(sk)], found[:len(sk)])
	clear(sk) // drop the frame views before the buffer goes back to the pool
	*skp = sk
	b.keyScratch.Put(skp)
	return n
}

func (b *backend) Set(key, val []byte) error {
	return b.m.Put(view(key), val)
}

func (b *backend) Delete(key []byte) (bool, error) {
	return b.m.Delete(view(key))
}
