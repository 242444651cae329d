package cmap

// Snapshot/load for the sharded concurrent map, the piece of the
// persistence subsystem that makes recovery geometry-free in both
// dimensions: a snapshot written by an S-shard, B-bucket map reloads
// into any S'-shard, B'-bucket one.
//
// The records store each pair's FULL keyed digest, not the in-shard tag
// the cores hold: the tag has already had the shard-routing bits split
// off (hashes.ShardSplit), so it can re-derive candidates at any bucket
// count but only within the shard count it was split for. The writer
// therefore spends one hash evaluation per record to recover the full
// digest — on the write path, where the cost is buried in I/O — and the
// loader re-splits it for the new shard count and streams the result
// straight into the same digest-tag placement path Put uses, never
// re-hashing a key at load time.

import (
	"fmt"
	"io"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/persist"
)

// Range calls fn for every stored pair until fn returns false. Shards
// are visited in index order, each under its read lock with the core's
// deterministic iteration (buckets, then stash; both geometries
// mid-resize), so the view is per-shard consistent: concurrent writers
// proceed on every shard except the one currently streaming.
//
// fn must not call any method of m — it runs under a shard's read lock,
// and a write on the same shard would deadlock.
func (m *Map[K, V]) Range(fn func(key K, val V) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		done := sh.core.Range(func(k K, v V, _ uint64) bool { return fn(k, v) })
		sh.mu.RUnlock()
		if !done {
			return
		}
	}
}

// Snapshot streams the map into w as one section per shard. Each
// shard's read lock is held only while that shard's records are encoded
// into the section buffer — writes to every other shard proceed, and
// I/O to w happens between locks — so the snapshot is per-shard
// consistent, the same consistency every cross-shard read of this map
// has. Records carry full digests: the snapshot reloads at any shard
// and bucket geometry (see LoadKeyed) as long as the seed and hasher
// are the ones recorded here.
func (m *Map[K, V]) Snapshot(w io.Writer, kc keyed.Codec[K], vc keyed.Codec[V]) error {
	sw, err := persist.NewSnapshotWriter(w, persist.Header{
		Sections: uint32(len(m.shards)),
		Seed:     m.seed,
		Shards:   uint32(len(m.shards)),
		Slots:    uint32(m.shards[0].core.SlotsPerBucket()),
		D:        uint32(m.d),
		Stash:    uint32(m.shards[0].core.StashCap()),
		// Buckets is omitted (0): with online resize each shard may sit at
		// its own bucket count, and the loader ignores it anyway.
	})
	if err != nil {
		return err
	}
	var keyBuf, valBuf []byte
	for i := range m.shards {
		sh := &m.shards[i]
		if err := sw.BeginSection(); err != nil {
			return err
		}
		sh.mu.RLock()
		sh.core.Range(func(k K, v V, _ uint64) bool {
			keyBuf = kc.Append(keyBuf[:0], k)
			valBuf = vc.Append(valBuf[:0], v)
			err = sw.Record(keyBuf, valBuf, m.digest(k))
			return err == nil
		})
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
		if err := sw.EndSection(); err != nil {
			return err
		}
	}
	return sw.Close()
}

// LoadKeyed reads a snapshot into a fresh map of cfg's geometry — ANY
// geometry: each record's stored digest is re-split for cfg's shard
// count and its candidates re-derived at the target shard's bucket
// count, exactly the re-placement the online-resize path performs, so
// load never re-hashes a key. cfg.Seed is overridden by the snapshot's
// seed (the digests are functions of it); the hasher must be the one
// the snapshot was written under, which is verified against the first
// record. With resize enabled (cfg.MaxLoadFactor > 0) shards grow as
// the stream fills them; with it disabled, a record the fixed geometry
// cannot hold fails the load.
//
// Records are placed a window at a time, in snapshot order, through the
// put body Put runs (see placeWindow), so the loaded map is the one
// placing every record with PutDigest would build. A window never spans
// two sections: decoded keys and values may be views of their record's
// bytes, which the reader keeps valid through the section.
//
//repro:digestcarried
func LoadKeyed[K comparable, V any](r io.Reader, h keyed.Hasher[K], kc keyed.Codec[K], vc keyed.Codec[V], cfg Config) (*Map[K, V], error) {
	sr, err := persist.NewSnapshotReader(r)
	if err != nil {
		return nil, err
	}
	cfg.Seed = sr.Header().Seed
	m := NewKeyed[K, V](h, cfg)
	w := new(loadWindow[K, V])
	first := true
	for sr.Next() {
		kb, vb, digest := sr.Record()
		key, err := kc.Decode(kb)
		if err != nil {
			return nil, err
		}
		val, err := vc.Decode(vb)
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			if got := m.digest(key); got != digest { //repro:rehash-ok one-time wrong-hasher detection against the first record
				return nil, fmt.Errorf("cmap: snapshot digest %#x, hasher computes %#x — wrong hasher for this snapshot", digest, got)
			}
		}
		w.digests[w.n], w.keys[w.n], w.vals[w.n] = digest, key, val
		w.n++
		if (w.n == loadChunk || sr.SectionDone()) && !m.placeWindow(w) {
			return nil, fmt.Errorf("cmap: snapshot does not fit the target geometry (record rejected; enable MaxLoadFactor or widen the shape)")
		}
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadChunk is the number of records LoadKeyed places per window: as
// many independent misses as GetBatch's chunk keeps in flight.
const loadChunk = mgetChunk

// loadWindow is LoadKeyed's window of decoded records and their plans.
// digests holds each record's full digest, then its in-shard tag once
// planned; cands holds d candidates per record.
type loadWindow[K comparable, V any] struct {
	n       int
	digests [loadChunk]uint64
	keys    [loadChunk]K
	vals    [loadChunk]V
	shards  [loadChunk]*shard[K, V]
	ders    [loadChunk]*hashes.Deriver
	cands   [loadChunk * maxD]uint32
}

// placeWindow places w's records in order and empties w, reporting
// false if the map rejected one. It runs in three phases, as GetBatch
// does: plan every record (route it, derive its candidates with its
// shard's deriver), touch each candidate bucket's slot and tag lines in
// one volley so the window's cache misses overlap, then place each
// record through putRouted with its planned candidates. The map is the
// loader's alone, so planning needs no lock, and putRouted derives
// again only for a record whose shard an earlier placement promoted.
//
//repro:digestcarried
func (m *Map[K, V]) placeWindow(w *loadWindow[K, V]) bool {
	tags := w.digests[:w.n]
	for i, d := range tags {
		sh, tag := m.routeDigest(d)
		der := sh.deriver.Load()
		der.CandidateBins(tag, w.cands[i*m.d:(i+1)*m.d])
		w.shards[i], w.ders[i], tags[i] = sh, der, tag
	}
	// The volley, kept free of interleaved compute (see getChunk).
	var sum uint32
	for i := range tags {
		sum += w.shards[i].core.PrefetchPut(w.cands[i*m.d : (i+1)*m.d])
	}
	keepAlive(sum)
	w.n = 0
	for i, tag := range tags {
		if !m.putRouted(w.shards[i], tag, w.ders[i], w.cands[i*m.d:(i+1)*m.d], w.keys[i], w.vals[i]) {
			return false
		}
	}
	return true
}
