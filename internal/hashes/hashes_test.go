package hashes

import (
	"testing"
	"testing/quick"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// TestSipHash24ReferenceVectors checks against the canonical test vectors
// from the SipHash reference implementation: key bytes 00..0f, message
// bytes 00..len−1, for len = 0..15.
func TestSipHash24ReferenceVectors(t *testing.T) {
	key := SipKey{K0: 0x0706050403020100, K1: 0x0F0E0D0C0B0A0908}
	want := []uint64{
		0x726FDB47DD0E0E31, 0x74F839C593DC67FD, 0x0D6C8009D9A94F5A, 0x85676696D7FB7E2D,
		0xCF2794E0277187B7, 0x18765564CD99A68D, 0xCBC9466E58FEE3CE, 0xAB0200F58B01D137,
		0x93F5F5799A932462, 0x9E0082DF0BA9E4B0, 0x7A5DBBC594DDB9F3, 0xF4B32F46226BADA7,
		0x751E8FBC860EE5FB, 0x14EA5627C0843D90, 0xF723CA908E7AF2EE, 0xA129CA6149BE45E5,
	}
	msg := make([]byte, 0, 16)
	for i, w := range want {
		if got := SipHash24(key, msg); got != w {
			t.Fatalf("SipHash24 len %d = %#016x, want %#016x", i, got, w)
		}
		msg = append(msg, byte(i))
	}
}

func TestSipHash24LongInput(t *testing.T) {
	// Multi-block input exercises the 8-byte loop; check determinism and
	// key sensitivity.
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	k1 := SipKeyFromSeed(1)
	k2 := SipKeyFromSeed(2)
	a := SipHash24(k1, data)
	b := SipHash24(k1, data)
	c := SipHash24(k2, data)
	if a != b {
		t.Error("SipHash not deterministic")
	}
	if a == c {
		t.Error("different keys collided (astronomically unlikely)")
	}
}

func TestSipHash24AvalancheQuick(t *testing.T) {
	key := SipKeyFromSeed(42)
	f := func(data []byte, flipAt uint8) bool {
		if len(data) == 0 {
			return true
		}
		h1 := SipHash24(key, data)
		i := int(flipAt) % len(data)
		data[i] ^= 1
		h2 := SipHash24(key, data)
		return h1 != h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeriveChoicesContracts(t *testing.T) {
	// For prime, power-of-two and composite n: F in range, G coprime to n.
	for _, n := range []int{16411, 1 << 14, 12000} {
		d := NewDeriver(n)
		if d.N() != n {
			t.Fatalf("N() = %d", d.N())
		}
		digest := uint64(0x0123456789ABCDEF)
		for i := 0; i < 5000; i++ {
			c := d.DeriveChoices(digest)
			if c.F >= uint32(n) {
				t.Fatalf("n=%d: F = %d out of range", n, c.F)
			}
			if c.G < 1 || c.G >= uint32(n) {
				t.Fatalf("n=%d: G = %d out of range", n, c.G)
			}
			if !numeric.Coprime(uint64(c.G), uint64(n)) {
				t.Fatalf("n=%d: G = %d not coprime", n, c.G)
			}
			digest = digest*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestDeriveChoicesCoprimeOnCompositeN(t *testing.T) {
	// The coprimality guarantee on a sweep of composite n: even, odd
	// composite, prime powers, highly composite, and a composite just
	// above a power of two. The stride must always be coprime — this is
	// what makes every probe sequence a full cycle (paper §1).
	composites := []int{4, 6, 9, 10, 12, 49, 100, 210, 360, 1024 + 1_000, 2310, 6561, 12000, 1 << 16, 3 * (1 << 14)}
	for _, n := range composites {
		d := NewDeriver(n)
		digest := uint64(n) * 0x9E3779B97F4A7C15
		for i := 0; i < 3000; i++ {
			c := d.DeriveChoices(digest)
			if !numeric.Coprime(uint64(c.G), uint64(n)) {
				t.Fatalf("n=%d digest=%#x: G = %d shares a factor with n", n, digest, c.G)
			}
			if c.G < 1 || c.G >= uint32(n) {
				t.Fatalf("n=%d: G = %d outside [1, n)", n, c.G)
			}
			digest = digest*2862933555777941757 + 3037000493
		}
	}
}

func TestCandidateBinsDistinct(t *testing.T) {
	// All d candidates distinct, for d up to 8 across prime, power-of-two
	// and composite table sizes.
	for _, n := range []int{97, 128, 210, 12000} {
		der := NewDeriver(n)
		for _, d := range []int{2, 3, 5, 8} {
			dst := make([]uint32, d)
			digest := uint64(7 + n + d)
			for i := 0; i < 2000; i++ {
				der.CandidateBins(digest, dst)
				seen := map[uint32]bool{}
				for _, v := range dst {
					if v >= uint32(n) || seen[v] {
						t.Fatalf("n=%d d=%d: candidates invalid: %v", n, d, dst)
					}
					seen[v] = true
				}
				digest = digest*2862933555777941757 + 3037000493
			}
		}
	}
}

func TestDeriveChoicesSplitMatchesConstruction(t *testing.T) {
	// The (f, g) split is exactly the paper's construction: f is the low
	// 32 bits of the digest reduced mod n, and g comes from the high 32
	// bits — any non-zero residue for prime n, odd residues for
	// power-of-two n.
	const prime = 16411
	dp := NewDeriver(prime)
	const pow2 = 1 << 12
	d2 := NewDeriver(pow2)
	digest := uint64(0xFEEDFACE12345678)
	for i := 0; i < 5000; i++ {
		lo := digest & 0xFFFFFFFF
		hi := digest >> 32
		cp := dp.DeriveChoices(digest)
		if want := uint32(lo % prime); cp.F != want {
			t.Fatalf("prime n: F = %d, want low-half reduction %d", cp.F, want)
		}
		if want := uint32(1 + hi%(prime-1)); cp.G != want {
			t.Fatalf("prime n: G = %d, want 1 + hi mod (n-1) = %d", cp.G, want)
		}
		c2 := d2.DeriveChoices(digest)
		if want := uint32(lo % pow2); c2.F != want {
			t.Fatalf("pow2 n: F = %d, want %d", c2.F, want)
		}
		if c2.G%2 == 0 {
			t.Fatalf("pow2 n: G = %d must be odd", c2.G)
		}
		if want := uint32((hi%(pow2/2))*2 + 1); c2.G != want {
			t.Fatalf("pow2 n: G = %d, want %d", c2.G, want)
		}
		digest = digest*6364136223846793005 + 1442695040888963407
	}
}

func TestCandidateBinsArithmetic(t *testing.T) {
	d := NewDeriver(1 << 10)
	dst := make([]uint32, 4)
	d.CandidateBins(0xDEADBEEFCAFEF00D, dst)
	c := d.DeriveChoices(0xDEADBEEFCAFEF00D)
	for k, v := range dst {
		want := (int(c.F) + k*int(c.G)) % (1 << 10)
		if int(v) != want {
			t.Fatalf("candidate %d = %d, want %d", k, v, want)
		}
	}
	if c.G%2 == 0 {
		t.Fatal("power-of-two stride must be odd")
	}
}

func TestDeriverNOne(t *testing.T) {
	d := NewDeriver(1)
	c := d.DeriveChoices(12345)
	if c.F != 0 || c.G != 0 {
		t.Fatalf("n=1 choices = %+v", c)
	}
	dst := make([]uint32, 3)
	d.CandidateBins(99, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("n=1 candidate %d", v)
		}
	}
}

func TestDeriverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n <= 0")
		}
	}()
	NewDeriver(0)
}

func TestDeriveChoicesUniformity(t *testing.T) {
	// Marginal uniformity of F over a small prime n using sequential
	// digests through SipHash (the realistic pipeline).
	const n = 17
	d := NewDeriver(n)
	key := SipKeyFromSeed(9)
	counts := make([]int, n)
	var buf [8]byte
	const draws = 170000
	for i := 0; i < draws; i++ {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		c := d.DeriveChoices(SipHash24(key, buf[:]))
		counts[c.F]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 60 { // 16 dof; far tail
		t.Errorf("F chi-square %.1f over %d cells", chi2, n)
	}
}

func TestShardSplit(t *testing.T) {
	// shardBits = 0 is the identity: everything stays in-shard.
	if s, in := ShardSplit(0xDEADBEEF12345678, 0); s != 0 || in != 0xDEADBEEF12345678 {
		t.Fatalf("shardBits=0: shard=%d in=%x", s, in)
	}
	src := rng.NewXoshiro256(77)
	for _, bits := range []int{1, 4, 8, 32} {
		counts := make([]int, 1<<uint(bits%16)) // count only for small splits
		for i := 0; i < 20000; i++ {
			digest := src.Uint64()
			shard, inShard := ShardSplit(digest, bits)
			if uint64(shard) >= 1<<uint(bits) {
				t.Fatalf("bits=%d: shard %d out of range", bits, shard)
			}
			// The split is deterministic.
			s2, in2 := ShardSplit(digest, bits)
			if s2 != shard || in2 != inShard {
				t.Fatalf("bits=%d: split not deterministic", bits)
			}
			if bits <= 8 {
				counts[shard]++
			}
		}
		if bits <= 8 {
			want := 20000 / (1 << uint(bits))
			for s, c := range counts {
				if c < want/2 || c > 2*want {
					t.Fatalf("bits=%d: shard %d got %d of ~%d", bits, s, c, want)
				}
			}
		}
	}
	// The in-shard digest must not depend on the discarded shard bits
	// alone: two digests differing only in shard bits give different
	// shards but can give any in-shard value; what matters is that the
	// surviving low bits fully determine it.
	a, b := uint64(0x00FF_1234_5678_9ABC), uint64(0xFFFF_1234_5678_9ABC)
	_, inA := ShardSplit(a, 8)
	_, inB := ShardSplit(b, 8)
	if inA != inB {
		t.Fatal("in-shard digest leaked shard bits for an 8-bit split")
	}
	for _, bad := range []int{-1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shardBits=%d: no panic", bad)
				}
			}()
			ShardSplit(1, bad)
		}()
	}
}

// TestShardJoinInvertsShardSplit: a snapshot writer rebuilds each pair's
// full digest from its shard and stored tag with ShardJoin, so the join
// must return exactly the digest ShardSplit split, at every split width.
func TestShardJoinInvertsShardSplit(t *testing.T) {
	src := rng.NewXoshiro256(78)
	for bits := 0; bits <= 32; bits++ {
		for i := 0; i < 20000; i++ {
			digest := src.Uint64()
			shard, inShard := ShardSplit(digest, bits)
			if got := ShardJoin(shard, inShard, bits); got != digest {
				t.Fatalf("bits=%d: ShardJoin(ShardSplit(%#x)) = %#x", bits, digest, got)
			}
		}
	}
	for _, bad := range []int{-1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shardBits=%d: no panic", bad)
				}
			}()
			ShardJoin(0, 1, bad)
		}()
	}
}
