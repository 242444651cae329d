package cmap

// Snapshot/load for the sharded concurrent map, the piece of the
// persistence subsystem that makes recovery geometry-free in both
// dimensions: a snapshot written by an S-shard, B-bucket map reloads
// into any S'-shard, B'-bucket one.
//
// The records store each pair's FULL keyed digest, not the in-shard tag
// the cores hold: the tag has already had the shard-routing bits split
// off (hashes.ShardSplit), so it can re-derive candidates at any bucket
// count but only within the shard count it was split for. The split is
// a bijection, so the writer rebuilds the full digest from the shard
// index and the stored tag (hashes.ShardJoin) without hashing a key, and
// the loader re-splits it for the new shard count and streams the result
// straight into the same digest-tag placement path Put uses. Neither
// side evaluates a keyed hash: the one a pair's Put spent carries it
// through every snapshot and load.

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
// has. Records carry full digests, joined from each pair's shard and
// stored tag: the snapshot reloads at any shard and bucket geometry (see
// LoadKeyed) as long as the seed and hasher are the ones recorded here.
//
//repro:digestcarried
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
		sh.core.Range(func(k K, v V, tag uint64) bool {
			keyBuf = kc.Append(keyBuf[:0], k)
			valBuf = vc.Append(valBuf[:0], v)
			err = sw.Record(keyBuf, valBuf, hashes.ShardJoin(uint32(i), tag, m.shardBits))
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
// The records go through a Loader, the recovery pipeline: a window at a
// time through the put body Put runs (see placeWindow), placed by the
// caller for a small snapshot and by min(GOMAXPROCS, shard count)
// workers, each owning a share of the shards, past loadWorkerQuota
// records. Every shard receives its records in snapshot order, so the
// loaded map is the one placing every record with PutDigest would build,
// whatever the worker count. Decoded keys and values may be views of
// their record's bytes, which the reader keeps valid through the
// section: the load places a section's records before it reads the
// next. Every worker has exited when LoadKeyed returns, on every path.
//
//repro:digestcarried
func LoadKeyed[K comparable, V any](r io.Reader, h keyed.Hasher[K], kc keyed.Codec[K], vc keyed.Codec[V], cfg Config) (*Map[K, V], error) {
	ld, err := LoadSnapshot(r, h, kc, vc, cfg)
	if err != nil {
		return nil, err
	}
	ld.Close() // LoadSnapshot placed every record
	return ld.Map(), nil
}

// LoadSnapshot is LoadKeyed, returning the Loader that placed the
// snapshot still open, with every record placed: a recovery hands the
// log's records to the same pipeline, then closes it. On an error it
// closes the loader itself.
//
//repro:digestcarried
func LoadSnapshot[K comparable, V any](r io.Reader, h keyed.Hasher[K], kc keyed.Codec[K], vc keyed.Codec[V], cfg Config) (*Loader[K, V], error) {
	sr, err := persist.NewSnapshotReader(r)
	if err != nil {
		return nil, err
	}
	cfg.Seed = sr.Header().Seed
	ld := NewLoader(NewKeyed[K, V](h, cfg))
	fail := func(err error) (*Loader[K, V], error) {
		ld.Close()
		return nil, err
	}
	first := true
	for sr.Next() {
		kb, vb, digest := sr.Record()
		key, err := kc.Decode(kb)
		if err != nil {
			return fail(err)
		}
		val, err := vc.Decode(vb)
		if err != nil {
			return fail(err)
		}
		if first {
			first = false
			if got := ld.m.digest(key); got != digest { //repro:rehash-ok one-time wrong-hasher detection against the first record
				return fail(fmt.Errorf("cmap: snapshot digest %#x, hasher computes %#x — wrong hasher for this snapshot", digest, got))
			}
		}
		// A section's keys and values may view its buffer, which the
		// reader reuses after the section's last record.
		if !ld.Put(digest, key, val) || (sr.SectionDone() && !ld.Sync()) {
			return fail(fmt.Errorf("cmap: snapshot does not fit the target geometry (record rejected; enable MaxLoadFactor or widen the shape)"))
		}
	}
	if err := sr.Err(); err != nil {
		return fail(err)
	}
	return ld, nil
}
