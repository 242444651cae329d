package cmap

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/keyed"
	"repro/internal/testutil"
)

// fuzzSeeds builds corpus seeds shaped like the op sequences that found
// real bugs: a saturating put run (stash overflow / watermark crossing), a
// put-delete-get cycle (drain and dual-table hand-off), a hot-key
// update storm (in-place updates racing migration), and a
// put/delete/batch-lookup mix (the phased GetBatch tier probing resident,
// deleted and never-inserted keys mid-migration).
func fuzzSeeds(keySpace uint64) [][]byte {
	var fill, cycle, hot, batch []testutil.Op[uint64, uint64]
	for k := uint64(1); k <= 200; k++ {
		fill = append(fill, testutil.Op[uint64, uint64]{Kind: testutil.OpPut, Key: k, Val: k % 256})
	}
	for k := uint64(1); k <= 200; k++ {
		fill = append(fill, testutil.Op[uint64, uint64]{Kind: testutil.OpGet, Key: k})
	}
	for k := uint64(1); k <= 100; k++ {
		cycle = append(cycle, testutil.Op[uint64, uint64]{Kind: testutil.OpPut, Key: k, Val: 1})
	}
	for k := uint64(1); k <= 100; k += 2 {
		cycle = append(cycle, testutil.Op[uint64, uint64]{Kind: testutil.OpDelete, Key: k})
	}
	for k := uint64(1); k <= 100; k++ {
		cycle = append(cycle, testutil.Op[uint64, uint64]{Kind: testutil.OpGet, Key: k})
	}
	for i := 0; i < 300; i++ {
		hot = append(hot, testutil.Op[uint64, uint64]{Kind: testutil.OpKind(i % 3), Key: 1 + uint64(i%8), Val: uint64(i % 256)})
	}
	for k := uint64(1); k <= 150; k++ {
		batch = append(batch, testutil.Op[uint64, uint64]{Kind: testutil.OpPut, Key: k, Val: k % 256})
		if k%3 == 0 {
			batch = append(batch, testutil.Op[uint64, uint64]{Kind: testutil.OpDelete, Key: k / 3})
		}
		if k%5 == 0 {
			// Batches the recent window: live keys, just-deleted keys, and
			// (early on) keys never inserted — often with a resize in flight.
			batch = append(batch, testutil.Op[uint64, uint64]{Kind: testutil.OpGetBatch, Key: k + 200})
		}
	}
	return [][]byte{
		testutil.EncodeOps(fill, keySpace),
		testutil.EncodeOps(cycle, keySpace),
		testutil.EncodeOps(hot, keySpace),
		testutil.EncodeOps(batch, keySpace),
	}
}

// FuzzCMapOps decodes the input into a map shape (fixed-capacity or
// growing) plus an op sequence and differentially tests it against the
// shadow-map oracle, finishing any in-flight migration before the final
// sweep.
func FuzzCMapOps(f *testing.F) {
	const keySpace = 512
	for _, seed := range fuzzSeeds(keySpace) {
		// One header per regime: fixed capacity and online resize with the
		// smallest batch (maximum time spent mid-migration).
		f.Add(append([]byte{0, 0, 0, 0}, seed...))
		f.Add(append([]byte{1, 1, 17, 1}, seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		hdr, body := data[:4], data[4:]
		if len(body) > 32<<10 { // bound work per exec
			body = body[:32<<10]
		}
		cfg := Config{
			Shards:          1 << (hdr[0] % 3),      // 1, 2, 4
			BucketsPerShard: 8 << (hdr[0] >> 4 % 3), // 8, 16, 32
			SlotsPerBucket:  1 + int(hdr[1]%4),
			D:               2 + int(hdr[1]>>4%3), // 2..4
			Seed:            uint64(hdr[2]),
			StashPerShard:   2 + int(hdr[2]>>4),
		}
		if hdr[3]%2 == 1 {
			cfg.MaxLoadFactor = 0.55 + float64(hdr[3]>>1%4)*0.1
			cfg.MigrateBatch = 1 + int(hdr[3]>>3%8)
		}
		m := New(cfg)
		opt := testutil.Options{TrackValues: true, Finalize: func() {
			for m.MigrateStep(64) > 0 {
			}
		}}
		if err := testutil.Run(m, testutil.DecodeOps(body, keySpace), opt); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
	})
}

// FuzzCMapStringOps is FuzzCMapOps driven through the generic typed
// surface instead of the uint64 shim: the same decoded op sequences, with
// each uint64 key rendered as a string (injectively), against the same
// shadow-map oracle — once on Map[string, uint64] (arena keys, inline
// values) and once on Map[string, []byte] (keys and values in the arena,
// each value's length and bytes a function of the op's value). It pins
// that the string hasher, the generic shard cores, the arena and the
// resize and rebuild machinery keep the exact sequential semantics of the
// uint64 path.
func FuzzCMapStringOps(f *testing.F) {
	const keySpace = 512
	for _, seed := range fuzzSeeds(keySpace) {
		f.Add(append([]byte{0, 0, 0, 0}, seed...))
		f.Add(append([]byte{1, 1, 17, 1}, seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		hdr, body := data[:4], data[4:]
		if len(body) > 32<<10 { // bound work per exec
			body = body[:32<<10]
		}
		cfg := Config{
			Shards:          1 << (hdr[0] % 3),      // 1, 2, 4
			BucketsPerShard: 8 << (hdr[0] >> 4 % 3), // 8, 16, 32
			SlotsPerBucket:  1 + int(hdr[1]%4),
			D:               2 + int(hdr[1]>>4%3), // 2..4
			Seed:            uint64(hdr[2]),
			StashPerShard:   2 + int(hdr[2]>>4),
		}
		if hdr[3]%2 == 1 {
			cfg.MaxLoadFactor = 0.55 + float64(hdr[3]>>1%4)*0.1
			cfg.MigrateBatch = 1 + int(hdr[3]>>3%8)
		}
		decoded := testutil.DecodeOps(body, keySpace)
		key := func(k uint64) string { return fmt.Sprintf("key-%04x", k) }
		m := NewKeyed[string, uint64](keyed.ForType[string](), cfg)
		opt := testutil.Options{TrackValues: true, Finalize: func() {
			for m.MigrateStep(64) > 0 {
			}
		}}
		if err := testutil.Run(m, testutil.MapOps(decoded, key, func(v uint64) uint64 { return v }), opt); err != nil {
			t.Fatalf("Map[string, uint64] cfg %+v: %v", cfg, err)
		}
		bm := bytesValued{NewKeyed[string, []byte](keyed.ForType[string](), cfg)}
		opt.Finalize = func() {
			for bm.m.MigrateStep(64) > 0 {
			}
		}
		if err := testutil.Run(bm, testutil.MapOps(decoded, key, fuzzValue), opt); err != nil {
			t.Fatalf("Map[string, []byte] cfg %+v: %v", cfg, err)
		}
	})
}

// fuzzValue renders an op's value as bytes whose length and content both
// depend on it, so a stale or torn arena ref shows up as a wrong value.
func fuzzValue(v uint64) string { return strings.Repeat(string(rune('a'+v%26)), int(v%37)) }

// bytesValued presents a Map[string, []byte] to the differential harness,
// whose oracle needs comparable values, as a map of strings: values
// cross as copies on the way in and out, so the harness compares bytes.
type bytesValued struct{ m *Map[string, []byte] }

func (b bytesValued) Put(k, v string) bool { return b.m.Put(k, []byte(v)) }
func (b bytesValued) Delete(k string) bool { return b.m.Delete(k) }
func (b bytesValued) Len() int             { return b.m.Len() }

func (b bytesValued) Get(k string) (string, bool) {
	v, ok := b.m.Get(k)
	return string(v), ok
}

func (b bytesValued) GetBatch(keys, vals []string, found []bool) int {
	bv := make([][]byte, len(keys))
	n := b.m.GetBatch(keys, bv, found)
	for i, v := range bv {
		vals[i] = string(v)
	}
	return n
}

func (b bytesValued) Range(fn func(k, v string) bool) {
	b.m.Range(func(k string, v []byte) bool { return fn(k, string(v)) })
}
