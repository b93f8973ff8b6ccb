package rng

import "strconv"

// Derive produces a deterministic sub-seed from a parent seed and labels:
// 64-bit FNV-1a over the seed's decimal form and each part, a zero byte
// before each part. Every simulation, model, traffic and fleet seed of the
// module is a Derive value, so a change to its output re-draws every noise
// overlay, calibration and schedule. It does not allocate.
func Derive(seed int64, parts ...string) int64 {
	h := NewSeedHash(seed)
	for _, p := range parts {
		h = h.Part(p)
	}
	return h.Seed()
}

// SeedHash is Derive's FNV-1a state part-way through its input. FNV-1a is
// sequential, so folding parts into a saved state gives exactly the hash
// of the whole input: a caller that derives many seeds under a common
// prefix computes the prefix state once.
type SeedHash uint64

const (
	fnvOffset64 SeedHash = 14695981039346656037
	fnvPrime64  SeedHash = 1099511628211
)

// NewSeedHash starts a derivation from seed's decimal form.
func NewSeedHash(seed int64) SeedHash {
	var buf [20]byte
	h := fnvOffset64
	for _, c := range strconv.AppendInt(buf[:0], seed, 10) {
		h = (h ^ SeedHash(c)) * fnvPrime64
	}
	return h
}

// Part folds one label part: a zero separator byte, then the part.
func (h SeedHash) Part(s string) SeedHash {
	h *= fnvPrime64
	for i := 0; i < len(s); i++ {
		h = (h ^ SeedHash(s[i])) * fnvPrime64
	}
	return h
}

// Seed is the derived seed of the input folded so far.
func (h SeedHash) Seed() int64 { return int64(h) }
