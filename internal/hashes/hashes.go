// Package hashes provides the keyed hash functions a deployment of
// double hashing needs when items are real byte strings rather than
// simulation indices: SipHash-2-4 (a keyed, DoS-resistant PRF — the hash
// family routers and hash tables should use against adversarial keys),
// plus the derivation of a balanced-allocation candidate set (f, g) from a
// single 64-bit digest.
//
// The simulators in this repository draw (f, g) directly from a PRNG —
// legitimate because hash values of distinct keys are modeled as random —
// but a downstream hash table, load balancer or Bloom filter hashes
// concrete keys. DeriveChoices closes that gap: one SipHash call yields
// the paper's two hash values, and therefore all d candidates.

//repro:unsafeview SipHash24String views a string's backing bytes in place; strings are immutable byte sequences, no layout gate needed

package hashes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// SipKey is a 128-bit SipHash key.
type SipKey struct {
	K0, K1 uint64
}

// SipKeyFromSeed expands a 64-bit seed into a SipHash key.
func SipKeyFromSeed(seed uint64) SipKey {
	return SipKey{K0: rng.Mix64(seed), K1: rng.Mix64(seed + 0x9E3779B97F4A7C15)}
}

// SipHash24 returns the SipHash-2-4 PRF of data under key — the reference
// algorithm of Aumasson and Bernstein, producing a 64-bit tag.
//
//repro:noalloc
func SipHash24(key SipKey, data []byte) uint64 {
	v0 := key.K0 ^ 0x736F6D6570736575
	v1 := key.K1 ^ 0x646F72616E646F6D
	v2 := key.K0 ^ 0x6C7967656E657261
	v3 := key.K1 ^ 0x7465646279746573

	round := func() { //repro:allocok called directly and never escapes: the closure stays on the stack
		v0 += v1
		v1 = bits.RotateLeft64(v1, 13)
		v1 ^= v0
		v0 = bits.RotateLeft64(v0, 32)
		v2 += v3
		v3 = bits.RotateLeft64(v3, 16)
		v3 ^= v2
		v0 += v3
		v3 = bits.RotateLeft64(v3, 21)
		v3 ^= v0
		v2 += v1
		v1 = bits.RotateLeft64(v1, 17)
		v1 ^= v2
		v2 = bits.RotateLeft64(v2, 32)
	}

	n := len(data)
	for len(data) >= 8 {
		m := binary.LittleEndian.Uint64(data)
		v3 ^= m
		round()
		round()
		v0 ^= m
		data = data[8:]
	}
	// Final block: remaining bytes plus the length in the top byte.
	var last uint64
	for i, b := range data {
		last |= uint64(b) << (8 * uint(i))
	}
	last |= uint64(n&0xFF) << 56
	v3 ^= last
	round()
	round()
	v0 ^= last
	v2 ^= 0xFF
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// SipHash24String is SipHash24 over the bytes of s, without copying or
// allocating: the string's backing bytes are viewed in place (SipHash24
// neither retains nor mutates its input, so the view is safe). It returns
// the identical digest to SipHash24(key, []byte(s)).
//
//repro:noalloc
//repro:gated strings are always viewable as bytes; SipHash24 neither retains nor mutates the view
func SipHash24String(key SipKey, s string) uint64 {
	if len(s) == 0 {
		return SipHash24(key, nil)
	}
	return SipHash24(key, unsafe.Slice(unsafe.StringData(s), len(s)))
}

// Choices holds a key's derived balanced-allocation parameters. Indices
// are uint32 to match the engine's 32-bit placement hot path.
type Choices struct {
	F uint32 // first probe, uniform over [0, n)
	G uint32 // stride, coprime to n (0 when n == 1)
}

// Candidate returns the key's k-th candidate bin, (F + k·G) mod n.
func (c Choices) Candidate(k, n int) int {
	return (int(c.F) + k*int(c.G)%n) % n
}

// Deriver maps 64-bit digests to double-hashing candidate parameters over
// a fixed table size, using the fast paths for prime and power-of-two n.
// It is the single digest → (f, g) construction shared by the hash-table,
// cuckoo and open-addressing extensions.
type Deriver struct {
	n     int
	prime bool
	pow2  bool
}

// NewDeriver returns a Deriver for tables of n bins. It panics unless
// 0 < n <= 2^32 (bin indices are 32-bit throughout the hot path).
func NewDeriver(n int) *Deriver {
	if n <= 0 {
		panic(fmt.Sprintf("hashes: n = %d", n))
	}
	if int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("hashes: n = %d exceeds the 32-bit bin-index space", n))
	}
	return &Deriver{
		n:     n,
		prime: numeric.IsPrime(uint64(n)),
		pow2:  numeric.IsPowerOfTwo(uint64(n)),
	}
}

// N returns the table size.
func (d *Deriver) N() int { return d.n }

// DeriveChoices splits a digest into the paper's two hash values: f
// uniform over [0, n) from the low half, and g over residues coprime to n
// from the high half (odd for power-of-two n, any non-zero residue for
// prime n, coprime-by-remixing otherwise).
//
//repro:noalloc
func (d *Deriver) DeriveChoices(digest uint64) Choices {
	if d.n == 1 {
		return Choices{F: 0, G: 0}
	}
	n := uint64(d.n)
	f := (digest & math.MaxUint32) % n
	hi := digest >> 32
	var g uint64
	switch {
	case d.prime:
		g = 1 + hi%(n-1)
	case d.pow2:
		g = (hi%(n/2))*2 + 1
	default:
		g = 1 + hi%(n-1)
		for !numeric.Coprime(g, n) {
			hi = rng.Mix64(hi)
			g = 1 + hi%(n-1)
		}
	}
	return Choices{F: uint32(f), G: uint32(g)}
}

// ShardSplit splits one 64-bit digest into a shard index (the top
// shardBits bits) and a remixed in-shard digest built from the remaining
// 64−shardBits bits. The shard bits are excluded from the in-shard digest,
// so a shard's keys still carry independent-looking (f, g) material, and
// the whole construction stays one keyed hash evaluation end to end —
// internal/cmap routes a key to a shard and derives its double-hashing
// candidates inside the shard from this single split. shardBits must lie
// in [0, 32]; with shardBits == 0 the shard is always 0.
//
//repro:noalloc
func ShardSplit(digest uint64, shardBits int) (shard uint32, inShard uint64) {
	if shardBits < 0 || shardBits > 32 {
		panic(fmt.Sprintf("hashes: shardBits = %d outside [0, 32]", shardBits))
	}
	if shardBits == 0 {
		return 0, digest
	}
	shard = uint32(digest >> (64 - uint(shardBits)))
	// Remix the surviving low bits back into a full-width digest so
	// DeriveChoices sees uniform halves regardless of the split point.
	return shard, rng.Mix64(digest << uint(shardBits))
}

// ShardJoin is the inverse of ShardSplit: it returns the digest that
// ShardSplit(digest, shardBits) splits into (shard, inShard). A holder
// of a pair's in-shard digest and its shard, such as a snapshot writer
// reading stored tags, recovers the full digest with it instead of
// hashing the key again. With shardBits == 0 it returns inShard.
//
//repro:noalloc
func ShardJoin(shard uint32, inShard uint64, shardBits int) uint64 {
	if shardBits < 0 || shardBits > 32 {
		panic(fmt.Sprintf("hashes: shardBits = %d outside [0, 32]", shardBits))
	}
	if shardBits == 0 {
		return inShard
	}
	return uint64(shard)<<(64-uint(shardBits)) | rng.Unmix64(inShard)>>uint(shardBits)
}

// CandidateBins writes the key's d candidate bins into dst, deriving them
// from a single digest and expanding with the engine's shared progression.
// Candidates are distinct whenever len(dst) < n.
//
//repro:noalloc
func (d *Deriver) CandidateBins(digest uint64, dst []uint32) {
	c := d.DeriveChoices(digest)
	engine.Progression(dst, c.F, c.G, uint32(d.n))
}
