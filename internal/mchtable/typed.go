package mchtable

import (
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/hashes"
	"repro/internal/keyed"
)

// Map is the typed single-threaded multiple-choice hash table: the same
// placement Core as Table, keyed by any comparable type through a
// keyed.Hasher. It is one-hash double hashing by construction — the
// hasher's single SipHash evaluation is the entry's stored tag, the
// deriver splits it into (f, g), and all d candidate buckets (at any
// geometry) derive from it — so the typed API cannot express the
// d-evaluation "fully random" discipline at all; that comparison lives in
// Table, the simulator-shaped uint64 variant.
//
// Map is not safe for concurrent use; internal/cmap provides the sharded,
// lock-protected typed variant.
type Map[K comparable, V any] struct {
	core    *Core[K, V]
	deriver *hashes.Deriver
	hash    keyed.Hasher[K]
	sipKey  hashes.SipKey
	seed    uint64 // sipKey's seed material, recorded in snapshot headers
	scratch []uint32
	// delScratch holds the deleted key's candidates during Delete, because
	// Core.Delete's stash-drain callback recomputes candidates of *stashed*
	// keys into scratch — the two sets must not alias.
	delScratch []uint32
	// batchScratch holds a whole GetBatch's candidate buckets, key-major,
	// and batchTags its digests; both grow to the largest batch seen and
	// are reused across calls.
	batchScratch []uint32
	batchTags    []uint64
	candsOf      func(tag uint64) []uint32
}

// NewMap returns an empty typed table. The hasher is the table's single
// keyed hash evaluation per operation; cfg.Mode is ignored (a typed map
// is always double-hashed from one digest — see the type comment). It
// panics on invalid configuration or a nil hasher.
func NewMap[K comparable, V any](h keyed.Hasher[K], cfg Config) *Map[K, V] {
	if h == nil {
		panic("mchtable: nil hasher")
	}
	if cfg.D <= 0 || (cfg.D > 1 && cfg.D >= cfg.Buckets) {
		panic(fmt.Sprintf("mchtable: D = %d with %d buckets", cfg.D, cfg.Buckets))
	}
	if cfg.StashSize == 0 {
		cfg.StashSize = 32
	}
	m := &Map[K, V]{
		core:       NewCore[K, V](cfg.Buckets, cfg.SlotsPerBucket, cfg.StashSize),
		deriver:    hashes.NewDeriver(cfg.Buckets),
		hash:       h,
		sipKey:     hashes.SipKeyFromSeed(cfg.Seed),
		seed:       cfg.Seed,
		scratch:    make([]uint32, cfg.D),
		delScratch: make([]uint32, cfg.D),
	}
	m.candsOf = func(tag uint64) []uint32 {
		m.deriver.CandidateBins(tag, m.scratch)
		return m.scratch
	}
	return m
}

// digest is the map's single keyed hash evaluation per operation. The
// digest doubles as the stored tag candidates re-derive from.
func (m *Map[K, V]) digest(key K) uint64 { return m.hash(m.sipKey, key) }

// candidates fills m.scratch with the digest's candidate buckets.
func (m *Map[K, V]) candidates(digest uint64) []uint32 {
	m.deriver.CandidateBins(digest, m.scratch)
	return m.scratch
}

// Put stores key → val, updating in place if key is present. It reports
// whether the pair is stored; false means every candidate bucket and the
// stash were full (the insertion is rejected, table unchanged).
func (m *Map[K, V]) Put(key K, val V) bool {
	d := m.digest(key)
	ok := m.core.Put(m.candidates(d), key, val, d)
	m.compact()
	return ok
}

// compact rebuilds the table in one pass once its arena holds more dead
// bytes than live ones (Core.NeedsRebuild): every live pair is
// re-appended into a fresh arena, and the old one is dropped.
func (m *Map[K, V]) compact() {
	if !m.core.NeedsRebuild() {
		return
	}
	m.core.StartRebuild()
	m.core.Migrate(math.MaxInt, m.candsOf) // same-size migrations never stall
}

// Get returns the value stored for key.
func (m *Map[K, V]) Get(key K) (V, bool) {
	d := m.digest(key)
	return m.core.Get(m.candidates(d), key, d)
}

// GetBatch resolves keys[i] → (vals[i], found[i]) in one batched pass:
// every key is digested and its candidate buckets derived up front, the
// candidate cache lines are prefetched before the first probe, and only
// then does each key resolve — overlapping the random memory accesses
// that dominate lookup cost. It returns the number found. vals and found
// must each hold at least len(keys) entries.
func (m *Map[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	d := len(m.scratch)
	if cap(m.batchScratch) < len(keys)*d {
		m.batchScratch = make([]uint32, len(keys)*d)
		m.batchTags = make([]uint64, len(keys))
	}
	cands := m.batchScratch[:len(keys)*d]
	tags := m.batchTags[:len(keys)]
	for i, k := range keys {
		tags[i] = m.digest(k)
		m.deriver.CandidateBins(tags[i], cands[i*d:(i+1)*d])
	}
	return m.core.GetBatch(cands, d, keys, tags, vals, found)
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot triggers a stash drain: any stashed key with that bucket among its
// candidates (re-derived from its stored digest, no re-hash) moves back
// into the table.
func (m *Map[K, V]) Delete(key K) bool {
	d := m.digest(key)
	m.deriver.CandidateBins(d, m.delScratch)
	ok := m.core.Delete(m.delScratch, key, d, m.candsOf)
	m.compact()
	return ok
}

// Len returns the number of stored pairs (including stashed ones).
func (m *Map[K, V]) Len() int { return m.core.Len() }

// Occupancy returns stored pairs divided by total slot capacity.
func (m *Map[K, V]) Occupancy() float64 { return m.core.Occupancy() }

// Stats takes the common container snapshot.
func (m *Map[K, V]) Stats() container.Stats { return coreStats(m.core) }
