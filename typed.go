package repro

// This file is the typed container API: the generic Map over any
// comparable key type, the pluggable Hasher[K] that keeps every
// operation at exactly one keyed hash evaluation (the paper's one-hash
// discipline as an API contract), and the functional options NewMap,
// Load and Open read.

import (
	"repro/internal/cmap"
	"repro/internal/keyed"
)

// Typed container API.
type (
	// Hasher computes the single keyed 64-bit digest of a key — the one
	// hash evaluation per operation that drives shard routing, the
	// (f, g) double-hashing split and all d candidate buckets. See
	// HasherFor, StringHasher, BytesHasher and Uint64Hasher for the
	// built-ins.
	Hasher[K comparable] = keyed.Hasher[K]

	// Map is the concurrency-safe sharded multiple-choice hash map — the
	// library's one key-value container (DurableMap wraps it). One keyed
	// hash evaluation routes a key to a shard (digest high bits) and
	// derives its d candidate buckets inside the shard (remaining bits);
	// with a max load factor set (the NewMap default), shards crossing
	// their watermark (see WithMaxLoadFactor) double their bucket count
	// and migrate online without ever re-hashing a key.
	Map[K comparable, V any] = cmap.Map[K, V]
)

// ContainerStats is Map's occupancy/overflow snapshot, aggregated across
// shards.
type ContainerStats = cmap.Stats

// Built-in hashers. Every one is a pure function of (seed material, key)
// with zero allocations per call.

// HasherFor returns the built-in Hasher for K: the little-endian integer
// encoding for integer keys, the in-place string hasher for string keys,
// and the fixed-size byte view for pointer-free, padding-free arrays and
// structs. It panics for key types without byte identity (floats,
// pointers, interfaces, ...) — supply a custom Hasher for those.
func HasherFor[K comparable]() Hasher[K] { return keyed.ForType[K]() }

// StringHasher returns the Hasher for any string-backed key type. It
// hashes the string's bytes in place: Get on a string-keyed map is
// 0 allocs/op.
func StringHasher[K ~string]() Hasher[K] { return keyed.StringOf[K]() }

// BytesHasher returns the Hasher viewing K's in-memory bytes (native
// endianness) — for fixed-size composite keys such as packet 5-tuples.
// It panics unless K is pointer-free, float-free and padding-free; see
// internal/keyed.BytesOf for why each is required.
func BytesHasher[K comparable]() Hasher[K] { return keyed.BytesOf[K]() }

// Uint64Hasher hashes a uint64 key as its 8-byte little-endian encoding —
// the same digest HasherFor[uint64] computes.
var Uint64Hasher Hasher[uint64] = keyed.Uint64

// Functional options read by NewMap, Load and Open. Each documents the
// options it consumes; Open alone reads WithWALSync and
// WithDurableMetrics.
type options struct {
	shards         int
	buckets        int
	slots          int
	d              int
	stash          int
	maxLoad        float64
	migrateBatch   int
	seed           uint64
	walNoSync      bool
	durableMetrics *DurableMetrics
}

// Option configures NewMap, Load or Open.
type Option func(*options)

func buildOptions(opts []Option) options {
	o := options{
		shards:       16,
		buckets:      1 << 10,
		slots:        4,
		d:            3,
		stash:        32,
		maxLoad:      0.85,
		migrateBatch: 32,
		seed:         1,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// config is the map shape the options describe.
func (o options) config() cmap.Config {
	return cmap.Config{
		Shards:          o.shards,
		BucketsPerShard: o.buckets,
		SlotsPerBucket:  o.slots,
		D:               o.d,
		Seed:            o.seed,
		StashPerShard:   o.stash,
		MaxLoadFactor:   o.maxLoad,
		MigrateBatch:    o.migrateBatch,
	}
}

// WithShards sets Map's shard count (rounded up to a power of two;
// default 16). More shards mean less write contention.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithBuckets sets Map's buckets per shard (default 1024) — the
// *initial* count when growth is enabled. It sizes NewMap, Load, and an
// Open whose snapshot is absent or empty; Open recovering a snapshot's
// records sizes each shard for their count instead, smaller or larger
// than this.
func WithBuckets(n int) Option { return func(o *options) { o.buckets = n } }

// WithSlots sets Map's slots per bucket (default 4).
func WithSlots(n int) Option { return func(o *options) { o.slots = n } }

// WithD sets the number of candidate buckets per key (default 3) — the
// paper's d.
func WithD(d int) Option { return func(o *options) { o.d = d } }

// WithMaxLoadFactor caps Map's online-resize watermark (default 0.85):
// a shard whose occupancy crosses min(f, W(N)) about doubles its bucket
// count and migrates incrementally, where W(N) is the load at which the
// capped fluid limit predicts a shard of N buckets nears its stash
// trigger (see cmap.Config.MaxLoadFactor). 0 disables growth — the map
// becomes fixed-capacity and Put can reject.
func WithMaxLoadFactor(f float64) Option { return func(o *options) { o.maxLoad = f } }

// WithMigrateBatch sets how many entries each Put/Delete migrates while
// a Map shard resize is in flight (default 32) — the knob trading
// migration speed against write tail latency.
func WithMigrateBatch(n int) Option { return func(o *options) { o.migrateBatch = n } }

// WithSeed sets the hash seed material (default 1). Two maps with the
// same seed and hasher digest every key identically.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithStash sets Map's overflow stash capacity per shard (default 32).
func WithStash(n int) Option { return func(o *options) { o.stash = n } }

// WithWALSync sets whether Open's write-ahead log fsyncs before
// acknowledging a write (default true: an acknowledged write survives
// power loss, with concurrent writers group-committed into shared
// fsyncs). false trades that guarantee for raw throughput — a process
// crash still loses nothing, but power loss can drop the OS-buffered
// tail.
func WithWALSync(on bool) Option { return func(o *options) { o.walNoSync = !on } }

// WithDurableMetrics attaches observability instruments to Open's
// durable map: WAL append/fsync latency, group-commit batch sizes,
// sticky-poison events, recovery replay totals, and checkpoint
// duration/size. dm must have every field non-nil (use
// NewDurableMetrics). Only Open consumes it.
func WithDurableMetrics(dm *DurableMetrics) Option {
	return func(o *options) { o.durableMetrics = dm }
}

// NewMap returns an empty concurrency-safe sharded map keyed by K's
// built-in hasher (HasherFor[K]; panics for key types without one — use
// NewMapOf to supply a custom Hasher). Growth is on by default: shards
// double past their watermark, at most 0.85 occupancy, and migrate
// online, so Put effectively never rejects; pass WithMaxLoadFactor(0)
// for a fixed-capacity map.
//
// The type rule: K and V must each be pointer-free with a size that is a
// multiple of 4 bytes (stored inline in the slots), or a string kind, or
// — V only — []byte (copied into the map's byte arena on Put; Get
// returns views of it). Any other type panics here with the rule in the
// message: bool, int8, uint16 or [3]byte fields, pointers, slices other
// than a []byte value, maps, channels and interfaces — even for a key
// type HasherFor supports.
//
// Options consumed: WithShards, WithBuckets, WithSlots, WithD, WithStash,
// WithMaxLoadFactor, WithMigrateBatch, WithSeed.
func NewMap[K comparable, V any](opts ...Option) *Map[K, V] {
	return NewMapOf[K, V](HasherFor[K](), opts...)
}

// NewMapOf is NewMap with an explicit Hasher — for key types without a
// built-in hasher, or to override the encoding. K and V follow NewMap's
// type rule; NewMapOf panics for any other type.
func NewMapOf[K comparable, V any](h Hasher[K], opts ...Option) *Map[K, V] {
	return cmap.NewKeyed[K, V](h, buildOptions(opts).config())
}
