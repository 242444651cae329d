package cmap

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keyed"
	"repro/internal/rng"
)

// Two key streams: "uniform" spreads writers across the whole map (shard
// locks rarely collide), "contended" funnels every writer into a 256-key
// working set (constant same-shard lock traffic and update-in-place).
var benchStreams = []struct {
	name string
	mask uint64
}{
	{"uniform", 1<<17 - 1},
	{"contended", 255},
}

func newBenchMap(shards int) *Map[uint64, uint64] {
	return newU64(Config{
		Shards: shards, BucketsPerShard: (1 << 16) / shards,
		SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
	})
}

var benchSeed atomic.Uint64

// BenchmarkCMapPutParallel is the tentpole's throughput benchmark: writers
// on all GOMAXPROCS procs, sharded map vs the single-shard baseline (one
// global lock over the identical placement core), on both key streams.
// Compare with BenchmarkSyncMapPutParallel for the sync.Map baseline.
func BenchmarkCMapPutParallel(b *testing.B) {
	for _, shards := range []int{1, 16, 64} {
		for _, st := range benchStreams {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, st.name), func(b *testing.B) {
				m := newBenchMap(shards)
				b.RunParallel(func(pb *testing.PB) {
					src := rng.NewXoshiro256(benchSeed.Add(1) * 0x9E3779B97F4A7C15)
					for pb.Next() {
						k := src.Uint64() & st.mask
						m.Put(k, k)
					}
				})
			})
		}
	}
}

func BenchmarkCMapGetParallel(b *testing.B) {
	for _, shards := range []int{1, 64} {
		for _, st := range benchStreams {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, st.name), func(b *testing.B) {
				m := newBenchMap(shards)
				for k := uint64(0); k <= st.mask && k < 1<<16; k++ {
					m.Put(k, k)
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					src := rng.NewXoshiro256(benchSeed.Add(1) * 0x9E3779B97F4A7C15)
					for pb.Next() {
						m.Get(src.Uint64() & st.mask)
					}
				})
			})
		}
	}
}

// BenchmarkCMapGetBatch is the batched-lookup acceptance gate: resolving
// a batch through GetBatch (hash the whole batch, prefetch every key's
// candidate buckets, then probe) against the same keys resolved by a
// per-key Get loop. ns/op is per KEY, not per batch, so the two series
// compare directly; the acceptance bar is GetBatch ≥ 1.3x the loop at
// batch ≥ 16.
//
// The map is deliberately larger than the other Get benchmarks' (1M keys
// over ~100 MB of shard arrays): batching exists to overlap DRAM misses,
// and on a cache-resident map both paths just measure hashing.
func BenchmarkCMapGetBatch(b *testing.B) {
	const mask = 1<<20 - 1
	m := newU64(Config{
		Shards: 64, BucketsPerShard: 1 << 14,
		SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
	})
	for k := uint64(0); k <= mask; k++ {
		m.Put(k, k)
	}
	for _, size := range []int{8, 16, 64, 256} {
		keys := make([]uint64, size)
		vals := make([]uint64, size)
		found := make([]bool, size)
		fill := func(src rng.Source) {
			for i := range keys {
				keys[i] = src.Uint64() & mask
			}
		}
		b.Run(fmt.Sprintf("batch/size=%d", size), func(b *testing.B) {
			src := rng.NewXoshiro256(1)
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				fill(src)
				m.GetBatch(keys, vals, found)
			}
		})
		b.Run(fmt.Sprintf("perkey/size=%d", size), func(b *testing.B) {
			src := rng.NewXoshiro256(1)
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				fill(src)
				for _, k := range keys {
					m.Get(k)
				}
			}
		})
	}
}

// BenchmarkCMapGetMigration pins the resize acceptance criterion that
// reads see no blocking cliff during migration: "mid" drives parallel
// Gets on a map whose shards all have a nearly untouched resize backlog
// (reads probe both geometries but never migrate), "steady" is the same
// data in the identical final geometry with no resize in flight. The two
// must stay within the same order of magnitude.
func BenchmarkCMapGetMigration(b *testing.B) {
	const (
		shards  = 16
		buckets = 1 << 10
		slots   = 4
		d       = 3
	)
	target := shards * buckets * slots * 4 / 5
	fill := func(m *Map[uint64, uint64]) {
		for k := 1; k <= target; k++ {
			m.Put(uint64(k), uint64(k))
		}
	}
	run := func(b *testing.B, m *Map[uint64, uint64]) {
		b.RunParallel(func(pb *testing.PB) {
			src := rng.NewXoshiro256(benchSeed.Add(1) * 0x9E3779B97F4A7C15)
			for pb.Next() {
				m.Get(1 + src.Uint64()%uint64(target))
			}
		})
	}
	b.Run("mid-migration", func(b *testing.B) {
		// MigrateBatch 1: the fill's own piggybacked steps barely dent the
		// backlog, so the whole benchmark runs mid-migration.
		m := newU64(Config{Shards: shards, BucketsPerShard: buckets, SlotsPerBucket: slots,
			D: d, Seed: 42, StashPerShard: 64, MaxLoadFactor: 0.75, MigrateBatch: 1})
		fill(m)
		if st := m.Stats(); st.Migrating < target/2 {
			b.Fatalf("only %d of %d entries pending; shards are not mid-migration", st.Migrating, target)
		}
		b.ResetTimer()
		run(b, m)
	})
	b.Run("steady", func(b *testing.B) {
		m := newU64(Config{Shards: shards, BucketsPerShard: 2 * buckets, SlotsPerBucket: slots,
			D: d, Seed: 42, StashPerShard: 64})
		fill(m)
		b.ResetTimer()
		run(b, m)
	})
}

// Typed-API benchmarks: the redesign's acceptance gates. The uint64
// serial pair must stay within 5% of the pre-redesign cmap numbers (the
// generic Map is now the only implementation), and the string Get must be 0 allocs/op (one in-place SipHash
// evaluation per operation, no key copying).

func BenchmarkMapSerialPut(b *testing.B) {
	bench := func(b *testing.B, put func(i uint64)) {
		src := rng.NewXoshiro256(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put(src.Uint64() & (1<<17 - 1))
		}
	}
	b.Run("uint64", func(b *testing.B) {
		m := newBenchMap(16)
		bench(b, func(k uint64) { m.Put(k, k) })
	})
	b.Run("string", func(b *testing.B) {
		m := NewKeyed[string, uint64](keyed.ForType[string](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		keys := benchStringKeys()
		bench(b, func(k uint64) { m.Put(keys[k&(1<<17-1)], k) })
	})
	b.Run("struct", func(b *testing.B) {
		m := NewKeyed[fiveTuple, uint64](keyed.ForType[fiveTuple](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		bench(b, func(k uint64) {
			m.Put(fiveTuple{SrcIP: uint32(k), DstIP: uint32(k >> 13), SrcPort: uint16(k), Proto: 6}, k)
		})
	})
	b.Run("bytes", func(b *testing.B) {
		// served's shape: string keys, []byte values, both in the arena.
		// Overwrites of the 2^17 keys keep the arena rebuilding, so the
		// figure includes reclamation.
		m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		keys, val := benchStringKeys(), benchValue()
		bench(b, func(k uint64) { m.Put(keys[k&(1<<17-1)], val) })
	})
}

func BenchmarkMapSerialGet(b *testing.B) {
	bench := func(b *testing.B, get func(i uint64)) {
		src := rng.NewXoshiro256(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(src.Uint64() & (1<<16 - 1))
		}
	}
	b.Run("uint64", func(b *testing.B) {
		m := newBenchMap(16)
		for k := uint64(0); k < 1<<16; k++ {
			m.Put(k, k)
		}
		bench(b, func(k uint64) { m.Get(k) })
	})
	b.Run("string", func(b *testing.B) {
		m := NewKeyed[string, uint64](keyed.ForType[string](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		keys := benchStringKeys()
		for k := uint64(0); k < 1<<16; k++ {
			m.Put(keys[k], k)
		}
		bench(b, func(k uint64) { m.Get(keys[k]) })
	})
	b.Run("struct", func(b *testing.B) {
		m := NewKeyed[fiveTuple, uint64](keyed.ForType[fiveTuple](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		mk := func(k uint64) fiveTuple {
			return fiveTuple{SrcIP: uint32(k), DstIP: uint32(k >> 13), SrcPort: uint16(k), Proto: 6}
		}
		for k := uint64(0); k < 1<<16; k++ {
			m.Put(mk(k), k)
		}
		bench(b, func(k uint64) { m.Get(mk(k)) })
	})
	b.Run("bytes", func(b *testing.B) {
		m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
			Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
		})
		keys, val := benchStringKeys(), benchValue()
		for k := uint64(0); k < 1<<16; k++ {
			m.Put(keys[k], val)
		}
		bench(b, func(k uint64) { m.Get(keys[k]) })
	})
}

// BenchmarkCMapGetBatchBytes is BenchmarkCMapGetBatch for served's map
// shape — string keys and []byte values, both held in the arena — over
// 2^20 pairs, beyond the last-level cache: 16-key batches against the
// same keys looked up one Get at a time.
func BenchmarkCMapGetBatchBytes(b *testing.B) {
	const (
		mask = 1<<20 - 1
		size = 16
	)
	m := NewKeyed[string, []byte](keyed.ForType[string](), Config{
		Shards: 16, BucketsPerShard: 1 << 16, SlotsPerBucket: 4, D: 3, Seed: 42, StashPerShard: 64,
	})
	val := benchValue()
	names := make([]string, mask+1)
	for k := range names {
		names[k] = fmt.Sprintf("key-%016x", k)
		m.Put(names[k], val)
	}
	keys := make([]string, size)
	vals := make([][]byte, size)
	found := make([]bool, size)
	fill := func(src rng.Source) {
		for i := range keys {
			keys[i] = names[src.Uint64()&mask]
		}
	}
	b.Run(fmt.Sprintf("batch/size=%d", size), func(b *testing.B) {
		src := rng.NewXoshiro256(1)
		b.ResetTimer()
		for n := 0; n < b.N; n += size {
			fill(src)
			m.GetBatch(keys, vals, found)
		}
	})
	b.Run(fmt.Sprintf("perkey/size=%d", size), func(b *testing.B) {
		src := rng.NewXoshiro256(1)
		b.ResetTimer()
		for n := 0; n < b.N; n += size {
			fill(src)
			for _, k := range keys {
				m.Get(k)
			}
		}
	})
}

// BenchmarkLoadKeyedBytes is recovery's snapshot load at served's shape:
// 20-byte string keys and 32-byte []byte values, loaded into a map
// presized by BucketsFor as Open presizes it, with served's shards,
// slots, d and growth cap. Values decode as views of the record, as
// served's codec decodes them; keys are copied, as the standard string
// codec copies them. The snapshot holds the pairs in key order, in 16
// sections, as the end-to-end benchmark's datasets do, so consecutive
// records land in random shards (Map.Snapshot writes one shard per
// section instead, which a load at the same shard count places in one
// shard's slice of the map at a time). ns/op is per record. At 2^14
// pairs the map stays in cache; at 2^20 each placement misses DRAM. Run
// it at a fixed -benchtime of a few loads (e.g. 4194304x).
func BenchmarkLoadKeyedBytes(b *testing.B) {
	for _, pairs := range []int{1 << 14, 1 << 20} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			cfg := Config{Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 1, MaxLoadFactor: 0.9}
			sections := make([]int, 16)
			for s := range sections {
				sections[s] = pairs / len(sections)
			}
			val := benchValue()
			snap := writeSections(b, keyed.ForType[string](), keyed.StringCodec, bytesView, cfg.Seed, sections,
				func(i int) string { return fmt.Sprintf("key-%016x", i) }, func(int) []byte { return val })
			cfg.BucketsPerShard = BucketsFor(cfg, pairs)
			b.ResetTimer()
			for n := 0; n < b.N; n += pairs {
				// Each load starts on a collected heap, as a new process does.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				m, err := LoadKeyed(bytes.NewReader(snap), keyed.ForType[string](), keyed.StringCodec, bytesView, cfg)
				if err != nil || m.Len() != pairs {
					b.Fatalf("load: %v", err)
				}
			}
		})
	}
}

// BenchmarkSnapshotBytes is Map.Snapshot at served's shape: 2^20
// string keys and 32-byte []byte values in 16 shards, written to
// io.Discard, so ns/op is the per-pair cost of reading, encoding and
// framing a record, with no I/O. Each record's digest is joined from the
// pair's shard and stored tag, not hashed from its key. Run it at a
// fixed -benchtime of a few snapshots (e.g. 4194304x).
func BenchmarkSnapshotBytes(b *testing.B) {
	const pairs = 1 << 20
	cfg := Config{Shards: 16, BucketsPerShard: 1 << 12, SlotsPerBucket: 4, D: 3, Seed: 1, MaxLoadFactor: 0.9}
	cfg.BucketsPerShard = BucketsFor(cfg, pairs)
	m := NewKeyed[string, []byte](keyed.ForType[string](), cfg)
	val := benchValue()
	for k := 0; k < pairs; k++ {
		m.Put(fmt.Sprintf("key-%016x", k), val)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += pairs {
		if err := m.Snapshot(io.Discard, keyed.StringCodec, bytesView); err != nil {
			b.Fatal(err)
		}
	}
}

// benchValue is a 32-byte value, the size served's benchmark stores.
func benchValue() []byte { return []byte("0123456789abcdef0123456789abcdef") }

// benchStringKeys pre-renders the 2^17 string keys so the benchmarks
// measure the map, not fmt.
func benchStringKeys() []string {
	keys := make([]string, 1<<17)
	for i := range keys {
		keys[i] = fmt.Sprintf("chunk-%012d", i)
	}
	return keys
}

// BenchmarkSyncMapPutParallel is the standard-library baseline for the
// same workloads. sync.Map allocates per store and gives no occupancy
// control or load statistics; it is the generality-for-structure
// trade-off the sharded multiple-choice map exists to win.
func BenchmarkSyncMapPutParallel(b *testing.B) {
	for _, st := range benchStreams {
		b.Run(st.name, func(b *testing.B) {
			var m sync.Map
			b.RunParallel(func(pb *testing.PB) {
				src := rng.NewXoshiro256(benchSeed.Add(1) * 0x9E3779B97F4A7C15)
				for pb.Next() {
					k := src.Uint64() & st.mask
					m.Store(k, k)
				}
			})
		})
	}
}

func BenchmarkSyncMapGetParallel(b *testing.B) {
	for _, st := range benchStreams {
		b.Run(st.name, func(b *testing.B) {
			var m sync.Map
			for k := uint64(0); k <= st.mask && k < 1<<16; k++ {
				m.Store(k, k)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				src := rng.NewXoshiro256(benchSeed.Add(1) * 0x9E3779B97F4A7C15)
				for pb.Next() {
					m.Load(src.Uint64() & st.mask)
				}
			})
		})
	}
}
