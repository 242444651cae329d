package rng

// SplitMix64 is Steele, Lea and Flood's SplitMix generator (Java 8's
// SplittableRandom). It is a counter-based generator: state advances by a
// fixed odd constant and the output is a bijective finalizer of the state,
// so every seed yields a full-period, statistically independent-looking
// stream.
//
// The repository uses SplitMix64 in two roles: as a fast general-purpose
// Source, and as the seed-expansion function that derives per-trial seeds
// for the parallel harness (see Stream and internal/par).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uint64s fills dst with successive values, advancing the counter state in
// a local for the whole batch (the bulkSource fast path used by Uint64s).
func (s *SplitMix64) uint64s(dst []uint64) {
	state := s.state
	for i := range dst {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		dst[i] = z ^ (z >> 31)
	}
	s.state = state
}

// Mix64 applies the SplitMix64 output finalizer to x. It is a bijective
// avalanche function: flipping any input bit flips each output bit with
// probability close to 1/2. It backs deterministic seed derivation.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Unmix64 is the inverse of Mix64: Unmix64(Mix64(x)) == x for every x.
// It undoes Mix64's steps in reverse order, each xorshift by unxorshift
// and each multiplication by its constant's inverse mod 2^64.
func Unmix64(x uint64) uint64 {
	x = unxorshift(x, 31) * 0x319642b2d24d8ec3 // inverse of 0x94D049BB133111EB
	x = unxorshift(x, 27) * 0x96de1b173f119089 // inverse of 0xBF58476D1CE4E5B9
	return unxorshift(x, 30) - 0x9E3779B97F4A7C15
}

// unxorshift returns the x with y == x ^ (x >> s), for 0 < s < 64: the
// top s bits of y are x's, and each round recovers the next s.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x = y ^ (x >> s)
	}
	return x
}

// Stream derives a statistically independent sub-seed for stream i of the
// experiment identified by base. Distinct (base, i) pairs map to distinct
// seeds scattered by two rounds of mixing, so parallel trials never share
// or correlate their generators.
func Stream(base uint64, i int) uint64 {
	return Mix64(Mix64(base) + 0x9E3779B97F4A7C15*uint64(i+1))
}
