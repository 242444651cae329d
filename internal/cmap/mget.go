package cmap

// Batched lookups. A single Get pays its whole memory latency serially:
// hash, then a dependent chain of cache misses through one shard's
// buckets. GetBatch restructures many lookups into phases so the misses
// overlap instead of queueing — the standard software-pipelining trick
// for hash-join probes, applied to the seqlock read path:
//
//  1. hash every key in the chunk (keyed.DigestBatch — pure compute, no
//     memory traffic) and route each digest to its shard;
//  2. snapshot each shard's seqlock generation and plan each key — the
//     same plan a Get runs: check the shard's view(s) against its
//     deriver(s) and derive the candidate buckets — then issue prefetch
//     touches for every key's candidate buckets, a volley of independent
//     loads the memory system executes concurrently;
//  3. resolve each key — Get's resolve, over buckets now likely
//     cache-resident — and validate its generation, falling back to the
//     locked per-key path for any key whose snapshot tore.
//
// Each key's hit/miss is individually consistent — exactly a Get's
// guarantee — but different keys may observe different instants; a batch
// is not a snapshot. Chunking bounds the scratch footprint and keeps
// phase 2's prefetches close enough to phase 3's probes to still be in
// cache.

import (
	"repro/internal/keyed"
	"repro/internal/obs"
)

// mgetChunk is the batch-pipelining chunk size: large enough to fill the
// memory system with independent misses, small enough that prefetched
// lines survive until their probe (and that per-chunk scratch stays a
// few KB).
const mgetChunk = 64

// mgetScratch is one GetBatch call's working state, pooled on the Map:
// ~10 KB of arrays that would otherwise be zeroed on every call (the
// zeroing costs more than a small batch's probes). Each array is written
// before it is read: getChunk plans every key of a chunk, storing a zero
// plan for a key whose shard is mid-mutation.
type mgetScratch[K comparable, V any] struct {
	digests   [mgetChunk]uint64
	shards    [mgetChunk]*shard[K, V]
	seqs      [mgetChunk]uint64
	plans     [mgetChunk]readPlan[K, V] // a nil view marks a key for the locked fallback
	cands     [mgetChunk * maxD]uint32
	nextCands [mgetChunk * maxD]uint32
}

// GetBatch resolves keys[i] → (vals[i], found[i]) for every i, returning
// the number found. vals and found must be at least len(keys) long (it
// panics otherwise); entries beyond len(keys) are untouched. All keys are
// SipHashed up front and probed in cache-friendly phases (see the file
// comment), under the seqlock protocol with no lock held. Each key's
// result is individually consistent with concurrent writers, but the
// batch as a whole is not an atomic snapshot. String and []byte results
// are views of the map's arena, as Get's are.
//
//repro:noalloc
func (m *Map[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("cmap: GetBatch output slices shorter than keys")
	}
	var start int64
	mx := m.metrics
	if mx != nil {
		// Every batch is timed (no sampling): the two clock reads
		// amortize over the whole batch.
		start = obs.NowNanos()
	}
	sc, _ := m.mgetPool.Get().(*mgetScratch[K, V])
	if sc == nil {
		sc = new(mgetScratch[K, V]) //repro:allocok pool miss: one ~10 KB scratch, reused by every later call
	}
	hits := 0
	for off := 0; off < len(keys); off += mgetChunk {
		chunk := keys[off:min(off+mgetChunk, len(keys)):len(keys)]
		keyed.DigestBatch(m.hash, m.sipKey, chunk, sc.digests[:len(chunk)])
		hits += m.getChunk(sc, chunk, vals[off:], found[off:])
	}
	m.mgetPool.Put(sc)
	if mx != nil {
		mx.BatchNanos.Record(obs.NowNanos() - start)
	}
	return hits
}

// getChunk runs the phased lookup for one chunk (len(keys) <=
// mgetChunk, sc.digests[i] already computed): it plans every key, fires
// the prefetch volley, then resolves every key, through the plan and
// resolve every Get runs. Routing overwrites sc.digests in place with
// each key's in-shard tag — the digest's only remaining use.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) getChunk(sc *mgetScratch[K, V], keys []K, vals []V, found []bool) int {
	tags := sc.digests[:len(keys)]
	for i, d := range tags {
		sc.shards[i], tags[i] = m.routeDigest(d)
	}
	// Phase 2a: snapshot generations and plan — all compute over small,
	// cache-hot control structures. A key whose shard is mid-mutation, or
	// whose plan finds a deriver and view disagreeing on geometry, goes
	// straight to the fallback — GetBatch pipelines the common case, it
	// does not spin.
	for i := range keys {
		sh := sc.shards[i]
		s := sh.seq.Load()
		if s&1 != 0 {
			sc.plans[i] = readPlan[K, V]{}
			continue
		}
		sc.seqs[i] = s
		sc.plans[i] = m.plan(sh, tags[i], sc.cands[i*m.d:(i+1)*m.d], sc.nextCands[i*m.d:(i+1)*m.d])
	}
	// Phase 2b: the prefetch volley, kept free of interleaved compute so
	// the cache misses issue back-to-back and overlap as deeply as the
	// memory system allows.
	var sum uint32
	for i := range keys {
		if p := &sc.plans[i]; p.v != nil {
			sum += p.v.Prefetch(sc.cands[i*m.d : (i+1)*m.d])
			if p.nv != nil {
				sum += p.nv.Prefetch(sc.nextCands[i*m.d : (i+1)*m.d])
			}
		}
	}
	keepAlive(sum)
	// Phase 3: resolve and validate; anything torn or unplanned takes the
	// per-key locked path. Hits on the digest-keyed sample record their
	// probe depth, as Get's do.
	mx := m.metrics
	hits := 0
	for i, key := range keys {
		sh := sc.shards[i]
		var val V
		var depth int
		var ok bool
		p := &sc.plans[i]
		if p.v != nil {
			val, depth, ok = m.resolve(sh, p, sc.cands[i*m.d:(i+1)*m.d], sc.nextCands[i*m.d:(i+1)*m.d], key, tags[i])
		}
		if p.v == nil || sh.seq.Load() != sc.seqs[i] {
			// The optimistic snapshot tore (or was never taken): this
			// key's lookup is a seqlock fallback, same health signal as a
			// spun-out Get.
			sh.seqFallbacks.Add(1)
			val, depth, ok = m.lockedGet(sh, tags[i], key)
		}
		vals[i], found[i] = val, ok
		if ok {
			hits++
			if mx != nil && tags[i]&sampleMask == 0 {
				mx.ProbeDepth.Record(int64(depth))
			}
		}
	}
	return hits
}

// keepAlive anchors the prefetch checksum so the touch loads cannot be
// eliminated as dead.
//
//go:noinline
func keepAlive(uint32) {}
