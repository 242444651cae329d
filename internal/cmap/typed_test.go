package cmap

import (
	"fmt"
	"testing"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// fiveTuple is the padding-free struct key shape the flowtable example
// uses (4+4+2+2+2+2 = 16 bytes, byte-hashable).
type fiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint16
	Zone             uint16
}

func randTuple(src rng.Source) fiveTuple {
	a, b := src.Uint64(), src.Uint64()
	return fiveTuple{
		SrcIP: uint32(a), DstIP: uint32(a >> 32),
		SrcPort: uint16(b), DstPort: uint16(b >> 16),
		Proto: uint16(b>>32) % 256, Zone: uint16(b >> 40),
	}
}

// uniformGOF is the chi-square goodness-of-fit p-value of observed
// counts against a uniform expectation.
func uniformGOF(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	exp := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	return stats.ChiSquareSurvival(chi2, len(counts)-1)
}

// TestTypedShardRoutingUniform is the hasher acceptance criterion for
// routing: string and struct keys must spread over the shards as
// uniformly as the uint64 keys always have — one SipHash digest's high
// bits route, whatever the key type. Same p-gate as
// TestResizeLoadHistogramMatchesFreshTable.
func TestTypedShardRoutingUniform(t *testing.T) {
	const (
		shardBits = 5
		shards    = 1 << shardBits
		n         = 200000
	)
	key := hashes.SipKeyFromSeed(17)
	src := rng.NewXoshiro256(18)
	stringH := keyed.ForType[string]()
	structH := keyed.ForType[fiveTuple]()

	counts := map[string][]int{
		"uint64": make([]int, shards),
		"string": make([]int, shards),
		"struct": make([]int, shards),
	}
	for i := 0; i < n; i++ {
		x := src.Uint64()
		su, _ := hashes.ShardSplit(keyed.Uint64(key, x), shardBits)
		counts["uint64"][su]++
		ss, _ := hashes.ShardSplit(stringH(key, fmt.Sprintf("chunk-%016x", x)), shardBits)
		counts["string"][ss]++
		st, _ := hashes.ShardSplit(structH(key, randTuple(src)), shardBits)
		counts["struct"][st]++
	}
	for kind, c := range counts {
		if p := uniformGOF(c); p < 1e-4 {
			t.Errorf("%s-key shard routing non-uniform: p=%.2e counts=%v", kind, p, c)
		}
	}
}

// TestTypedBucketLoadsMatchUint64 is the in-shard acceptance criterion:
// a map keyed by strings (and by structs) must produce a bucket-load
// histogram chi-square-indistinguishable from the uint64 map at the same
// shape and occupancy — the digests a Hasher[K] produces drive the
// paper's placement exactly as well whatever K is.
func TestTypedBucketLoadsMatchUint64(t *testing.T) {
	cfg := Config{Shards: 8, BucketsPerShard: 256, SlotsPerBucket: 4, D: 3, Seed: 19, StashPerShard: 64}
	fill := int(0.75 * float64(8*256*4))

	fillMap := func(put func(x uint64) bool) {
		src := rng.NewXoshiro256(20)
		for n := 0; n < fill; {
			if put(src.Uint64()) {
				n++
			}
		}
	}
	u := newU64(cfg)
	fillMap(func(x uint64) bool { return u.Put(x, x) })
	uh := u.Stats().BucketLoads

	s := NewKeyed[string, uint64](keyed.ForType[string](), cfg)
	fillMap(func(x uint64) bool { return s.Put(fmt.Sprintf("chunk-%016x", x), x) })
	sh := s.Stats().BucketLoads
	if r := stats.ChiSquareHomogeneity(&uh, &sh, 5); r.P < 1e-4 {
		t.Errorf("string-key bucket loads distinguishable from uint64: chi2=%.2f dof=%d p=%.2e", r.Chi2, r.Dof, r.P)
	}

	st := NewKeyed[fiveTuple, uint64](keyed.ForType[fiveTuple](), cfg)
	tsrc := rng.NewXoshiro256(21)
	for n := 0; n < fill; {
		if st.Put(randTuple(tsrc), 1) {
			n++
		}
	}
	th := st.Stats().BucketLoads
	if r := stats.ChiSquareHomogeneity(&uh, &th, 5); r.P < 1e-4 {
		t.Errorf("struct-key bucket loads distinguishable from uint64: chi2=%.2f dof=%d p=%.2e", r.Chi2, r.Dof, r.P)
	}
}

// TestTypedUint64MatchesLegacyMap pins that the generic machinery did
// not change uint64 behaviour: a map under the canonical uint64 hasher
// (keyed.Uint64, the legacy digests) and one built from ForType place an
// identical op sequence identically — same membership, same histogram,
// same stash.
func TestTypedUint64MatchesLegacyMap(t *testing.T) {
	cfg := Config{Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, Seed: 23,
		StashPerShard: 16, MaxLoadFactor: 0.8, MigrateBatch: 4}
	a := newU64(cfg)
	b := NewKeyed[uint64, uint64](keyed.ForType[uint64](), cfg)
	ops := testutil.RandomOps(20000, 1024, 0.5, 0.2, 24)
	for _, op := range ops {
		switch op.Kind {
		case testutil.OpPut:
			if a.Put(op.Key, op.Val) != b.Put(op.Key, op.Val) {
				t.Fatalf("Put(%#x) diverged", op.Key)
			}
		case testutil.OpDelete:
			if a.Delete(op.Key) != b.Delete(op.Key) {
				t.Fatalf("Delete(%#x) diverged", op.Key)
			}
		default:
			av, aok := a.Get(op.Key)
			bv, bok := b.Get(op.Key)
			if av != bv || aok != bok {
				t.Fatalf("Get(%#x) diverged: (%d,%v) vs (%d,%v)", op.Key, av, aok, bv, bok)
			}
		}
	}
	drain(a)
	drain(b)
	as, bs := a.Stats(), b.Stats()
	if as.Len != bs.Len || as.Stashed != bs.Stashed || as.Resizes != bs.Resizes ||
		as.MinShardLen != bs.MinShardLen || as.MaxShardLen != bs.MaxShardLen {
		t.Fatalf("stats diverged: %+v vs %+v", as, bs)
	}
}

// TestDifferentialTypedStringMap runs the shared oracle over the real
// public typed shape — Map[string, uint64] — including online resize.
func TestDifferentialTypedStringMap(t *testing.T) {
	m := NewKeyed[string, uint64](keyed.ForType[string](), Config{
		Shards: 2, BucketsPerShard: 8, SlotsPerBucket: 2, D: 3, Seed: 25,
		StashPerShard: 4, MaxLoadFactor: 0.75, MigrateBatch: 2,
	})
	ops := testutil.MapOps(testutil.RandomOps(30000, 2048, 0.55, 0.15, 26),
		func(k uint64) string { return fmt.Sprintf("key-%06x", k) },
		func(v uint64) uint64 { return v },
	)
	opt := testutil.Options{TrackValues: true, Finalize: func() {
		for m.MigrateStep(64) > 0 {
		}
	}}
	if err := testutil.Run(m, ops, opt); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Resizes == 0 {
		t.Fatal("string map never resized under the growth config")
	}
}
