// Package rng provides deterministic pseudo-randomness for the whole
// repository. Two facilities are exposed:
//
//   - PRF: a stateless SplitMix64-based pseudo-random function over tuples of
//     integers, used wherever the paper assumes *public shared randomness*
//     (Alice's public random bits in the guessing game, and the shared
//     cluster-sampling coins of the distributed Baswana–Sen spanner). Every
//     node evaluating the PRF with the same seed sees the same coin.
//
//   - Stream: a per-entity random stream (math/rand compatible Source) derived
//     from a master seed and an entity ID, so simulations are reproducible
//     regardless of goroutine scheduling or iteration order.
package rng

import "math/rand"

// splitmix64 advances the SplitMix64 state and returns the next output.
// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hashInit = 0x51ab_de37_91c0_ffee

// Hash mixes an arbitrary tuple of integers into a single 64-bit value.
func Hash(vals ...uint64) uint64 { return fold(hashInit, vals) }

// fold mixes vals into the hash state h and finalizes it.
func fold(h uint64, vals []uint64) uint64 {
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return splitmix64(h)
}

// Coin returns a deterministic biased coin: true with probability p, computed
// from the tuple (seed, vals...). All parties that evaluate Coin with the
// same arguments observe the same outcome — this is the repository's
// implementation of public shared randomness.
func Coin(p float64, seed uint64, vals ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	// Hash(seed, vals...), without building the tuple.
	h := fold(splitmix64(hashInit^seed), vals)
	// Use the top 53 bits for a uniform float in [0,1).
	u := float64(h>>11) / float64(1<<53)
	return u < p
}

// SplitMix is a SplitMix64-backed rand.Source64 and the concrete stream
// behind Stream. Seeding is O(1) — against the ~600-word table
// initialization of math/rand's default source — which matters because the
// simulator derives one stream per node per run, and at benchmark scale
// source seeding otherwise dominates the profile. A generator whose inner
// loop is a draw uses it directly (NewSplitMix) and so pays no interface
// call per draw.
type SplitMix struct{ state uint64 }

// NewSplitMix returns the (seed, id) stream: its Uint64, Int63 and Float64
// sequences are those of Stream(seed, id).
func NewSplitMix(seed uint64, id uint64) SplitMix { return SplitMix{state: Hash(seed, id)} }

// Seed resets the stream (rand.Source).
func (s *SplitMix) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 random bits (rand.Source64).
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 returns a non-negative 63-bit integer (rand.Source).
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a float in [0, 1), bit for bit what (*rand.Rand).Float64
// returns over the same stream: Int63 / 2⁶³, redrawn when that rounds to 1.
func (s *SplitMix) Float64() float64 {
	for {
		if f := float64(s.Uint64()>>1) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Stream returns a deterministic *rand.Rand derived from (seed, id). Distinct
// ids yield independent-looking streams.
func Stream(seed uint64, id uint64) *rand.Rand {
	src := NewSplitMix(seed, id)
	return rand.New(&src)
}

// New returns a deterministic *rand.Rand for a bare seed.
func New(seed uint64) *rand.Rand {
	return Stream(seed, 0)
}
