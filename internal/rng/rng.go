// Package rng is powerdiv's single source of seeded randomness. Its
// Source produces exactly the stream of math/rand.NewSource(seed) — every
// Int63 and Uint64, and so every NormFloat64, Intn and Float64 drawn
// through rand.New — but seeds several times faster and can be re-seeded
// in place without allocating.
//
// math/rand fills its 607-word register by walking a serial chain of 1,841
// Lehmer steps x' = 48271·x mod (2³¹−1), three per word after 20 discarded
// ones. Source computes each word directly instead: x_n = 48271ⁿ·x₀ mod
// (2³¹−1) is one multiplication by a precomputed power, and because the
// modulus is a Mersenne prime the reduction is a shift-and-add fold. The
// words are independent, so the loop has no carried dependency.
//
// Every seeded random stream in the module goes through this package; a
// test rejects any other call to rand.NewSource.
package rng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// m31 is the Lehmer modulus 2³¹−1, a Mersenne prime.
	m31     = 1<<31 - 1
	lehmerA = 48271
	// warmup is how many Lehmer outputs math/rand discards before the
	// first register word.
	warmup = 20
	// zeroSeed replaces a seed congruent to 0, which would fix the
	// Lehmer chain at 0.
	zeroSeed = 89482311
)

// powers[i][j] is 48271^(warmup+1+3i+j) mod m31: the multipliers taking
// the normalized seed to the three Lehmer outputs register word i mixes.
var powers = func() (p [rngLen][3]uint64) {
	a := uint64(1)
	for n := 1; n <= warmup; n++ {
		a = mulmod(a, lehmerA)
	}
	for i := range p {
		for j := range p[i] {
			a = mulmod(a, lehmerA)
			p[i][j] = a
		}
	}
	return p
}()

// mulmod returns a·x mod m31 for a, x in [1, m31). Two folds bring the
// product (below 2⁶²) into [0, m31]; neither end is reachable because the
// product of two non-zero residues modulo a prime is non-zero, so the
// result is already fully reduced.
func mulmod(a, x uint64) uint64 {
	p := a * x
	r := p&m31 + p>>31
	return r&m31 + r>>31
}

// Source is math/rand's additive lagged-Fibonacci generator. The zero
// value must be seeded before use.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed; its stream is identical to
// math/rand.NewSource(seed)'s.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a rand.Rand drawing from NewSource(seed).
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed resets the generator to the state math/rand's Seed(seed) gives it.
// Re-seeding a used Source does not allocate.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &powers[i]
		u := mulmod(p[0], x)<<40 ^ mulmod(p[1], x)<<20 ^ mulmod(p[2], x)
		s.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
