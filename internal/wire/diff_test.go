package wire_test

// Differential tests: testutil's shadow-map oracle drives the whole
// network stack — encode, TCP loopback, server burst decode, backend,
// reply encode, client decode — as an ordinary Container. One run
// fronts the minimal in-memory backend (isolating the wire tier), one
// fronts a real DurableMap (the cmd/served stack end to end, WAL and
// all). Sequential ops + strictly-ordered replies make the remote map
// linearizable from the harness's point of view, so the oracle's
// semantics carry over unchanged.

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// netContainer adapts a wire.Client to testutil.Container[string,string].
// Len and Range come from the server-side peek: the wire protocol has no
// LEN/RANGE verbs, and with sequential ops the peek is consistent the
// moment the previous reply arrived.
type netContainer struct {
	t     *testing.T
	c     *wire.Client
	len   func() int
	each  func(fn func(k, v string) bool)
	vals  [][]byte
	found []bool
}

func (nc *netContainer) Put(key, val string) bool {
	if err := nc.c.Set([]byte(key), []byte(val)); err != nil {
		nc.t.Fatalf("net Put(%q): %v", key, err)
	}
	return true
}

func (nc *netContainer) Get(key string) (string, bool) {
	v, ok, err := nc.c.Get([]byte(key))
	if err != nil {
		nc.t.Fatalf("net Get(%q): %v", key, err)
	}
	return string(v), ok
}

func (nc *netContainer) Delete(key string) bool {
	present, err := nc.c.Delete([]byte(key))
	if err != nil {
		nc.t.Fatalf("net Delete(%q): %v", key, err)
	}
	return present
}

// GetBatch routes the harness's OpGetBatch through MGET — the batched
// network path differentially pinned to per-key Get semantics.
func (nc *netContainer) GetBatch(keys []string, vals []string, found []bool) int {
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	if cap(nc.vals) < len(keys) {
		nc.vals = make([][]byte, len(keys))
		nc.found = make([]bool, len(keys))
	}
	hits, err := nc.c.MGet(bkeys, nc.vals[:len(keys)], nc.found[:len(keys)])
	if err != nil {
		nc.t.Fatalf("net MGet(%d keys): %v", len(keys), err)
	}
	for i := range keys {
		vals[i] = string(nc.vals[i])
		found[i] = nc.found[i]
	}
	return hits
}

func (nc *netContainer) Len() int { return nc.len() }

func (nc *netContainer) Range(fn func(key string, val string) bool) { nc.each(fn) }

// diffOps is the shared op sequence: hot 96-key space so puts, deletes,
// overwrites and misses all occur, with every 7th Get widened into an
// OpGetBatch to keep the MGET path under the same oracle.
func diffOps(n int, seed uint64) []testutil.Op[string, string] {
	raw := testutil.RandomOps(n, 96, 0.40, 0.15, seed)
	for i := range raw {
		if raw[i].Kind == testutil.OpGet && i%7 == 0 {
			raw[i].Kind = testutil.OpGetBatch
		}
	}
	return testutil.MapOps(raw,
		func(k uint64) string { return string(fmtKey(k)) },
		func(v uint64) string { return string(fmtKey(v)) })
}

// fmtKey renders a compact decimal key without fmt (keeps the hot loop
// honest; values reuse it for variety).
func fmtKey(k uint64) []byte {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + k%10)
		if k /= 10; k == 0 {
			return b[i:]
		}
	}
}

func TestDifferentialWireMemBackend(t *testing.T) {
	b := newMemStore()
	srv := wire.NewServer(b, wire.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nc := &netContainer{t: t, c: c, len: b.lenLocked, each: b.rangeLocked}
	if err := testutil.Run[string, string](nc, diffOps(4000, 1), testutil.Options{TrackValues: true}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialWireDurableMap(t *testing.T) {
	dir := t.TempDir()
	m, err := repro.OpenOf[string, []byte](dir,
		repro.HasherFor[string](), repro.CodecFor[string](), testBytesCodec,
		repro.WithShards(2), repro.WithBuckets(16), repro.WithSlots(4),
		repro.WithMaxLoadFactor(0.85), repro.WithSeed(11),
		repro.WithWALSync(false)) // the oracle checks semantics, not durability
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	srv := wire.NewServer(&durableBackend{m: m}, wire.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nc := &netContainer{
		t: t, c: c,
		len: m.Len,
		each: func(fn func(k, v string) bool) {
			m.Range(func(k string, v []byte) bool { return fn(k, string(v)) })
		},
	}
	// Small initial geometry (128 slots) under a 96-key hot space with
	// 40% puts: the map grows online mid-sequence, so the oracle also
	// pins the network path across a resize.
	if err := testutil.Run[string, string](nc, diffOps(4000, 2), testutil.Options{TrackValues: true}); err != nil {
		t.Fatal(err)
	}
}

// testBytesCodec mirrors cmd/served's []byte value codec.
var testBytesCodec = repro.Codec[[]byte]{
	Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
	Decode: func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil },
}

// durableBackend mirrors cmd/served's DurableMap adapter.
type durableBackend struct {
	m  *repro.DurableMap[string, []byte]
	sk []string
}

func (b *durableBackend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	b.sk = b.sk[:0]
	for _, k := range keys {
		b.sk = append(b.sk, string(k))
	}
	return b.m.GetBatch(b.sk, vals[:len(b.sk)], found[:len(b.sk)])
}

func (b *durableBackend) Set(key, val []byte) error {
	return b.m.Put(string(key), append([]byte(nil), val...))
}

func (b *durableBackend) Delete(key []byte) (bool, error) { return b.m.Delete(string(key)) }

// memStore is the in-memory backend plus the server-side Len/Range peek
// the harness needs (the external test package cannot reuse the
// internal test's memBackend).
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (b *memStore) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	hits := 0
	for i, k := range keys {
		v, ok := b.m[string(k)]
		vals[i], found[i] = v, ok
		if ok {
			hits++
		}
	}
	return hits
}

func (b *memStore) Set(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (b *memStore) Delete(key []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[string(key)]
	delete(b.m, string(key))
	return ok, nil
}

func (b *memStore) lenLocked() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *memStore) rangeLocked(fn func(k, v string) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.m {
		if !fn(k, string(v)) {
			return
		}
	}
}
