package rng

import (
	"math"
	"math/rand"
	"testing"
)

// exactSeeds are the normalization edge cases: zero and its replacement,
// the modulus and its multiples, and the int64 extremes.
var exactSeeds = []int64{
	0, 1, -1,
	m31, -m31, m31 - 1, -(m31 - 1), m31 + 1, -(m31 + 1),
	2 * m31, -2 * m31,
	zeroSeed, -zeroSeed, zeroSeed + m31,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// testSeeds returns exactSeeds plus n generated seeds of both signs and
// every magnitude.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), exactSeeds...)
	gen := rand.New(rand.NewSource(20240917))
	for i := 0; i < n; i++ {
		s := gen.Int63() >> uint(gen.Intn(63))
		if gen.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// requireSameDraws interleaves every draw kind the module uses — raw
// Int63/Uint64 and the rand.Rand algorithms built on them — and requires
// identical results from both generators.
func requireSameDraws(t *testing.T, seed int64, got, want *rand.Rand, draws int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		var g, w uint64
		switch i % 6 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 3:
			n := 1 + i%97
			if (i/6)%2 == 0 {
				n = 1<<40 + i
			}
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		case 4:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 5:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: draw %d (kind %d) = %#x, math/rand gives %#x", seed, i, i%6, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins the package's contract: for every seed,
// Source's stream is math/rand.NewSource's, draw for draw.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(300) {
		requireSameDraws(t, seed, New(seed), rand.New(rand.NewSource(seed)), 2500)
	}
}

// TestReseedMatchesMathRand re-seeds a used Source in place — the pooled
// register's life — and requires the stream of a fresh math/rand source.
func TestReseedMatchesMathRand(t *testing.T) {
	src := NewSource(7)
	r := rand.New(src)
	requireSameDraws(t, 7, r, rand.New(rand.NewSource(7)), 2000)
	for _, seed := range testSeeds(50) {
		r.Seed(seed)
		requireSameDraws(t, seed, r, rand.New(rand.NewSource(seed)), 2000)
		// Partly drain the register so the next seed starts from a
		// mid-stream tap and feed.
		for i := 0; i < int(uint64(seed)%1000); i++ {
			src.Uint64()
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { src.Seed(42) }); allocs != 0 {
		t.Fatalf("re-seeding allocates %v times", allocs)
	}
}

// normalsPerScenario is the noise draws one lab-cold scenario makes: the
// benchmark's machine.ticks_per_scenario.
const normalsPerScenario = 317

var sink float64

func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += float64(NewSource(int64(i)).vec[0])
		}
	})
	b.Run("rng-reseed", func(b *testing.B) {
		b.ReportAllocs()
		src := new(Source)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
		sink += float64(src.vec[0])
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += float64(rand.NewSource(int64(i)).Int63())
		}
	})
}

func BenchmarkSeedAnd317Normals(b *testing.B) {
	draw := func(b *testing.B, newRand func(seed int64) *rand.Rand) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := newRand(int64(i))
			for k := 0; k < normalsPerScenario; k++ {
				sink += r.NormFloat64()
			}
		}
	}
	b.Run("rng", func(b *testing.B) { draw(b, New) })
	b.Run("math-rand", func(b *testing.B) {
		draw(b, func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) })
	})
}

func BenchmarkOneDraw(b *testing.B) {
	draw := func(b *testing.B, newRand func(seed int64) *rand.Rand) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += newRand(int64(i)).Float64()
		}
	}
	b.Run("rng", func(b *testing.B) { draw(b, New) })
	b.Run("math-rand", func(b *testing.B) {
		draw(b, func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) })
	})
}
