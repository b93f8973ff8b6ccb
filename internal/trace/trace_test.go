package trace

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSortsSamples(t *testing.T) {
	s := New(
		Sample{At: 2 * time.Second, Value: 2},
		Sample{At: 0, Value: 0},
		Sample{At: time.Second, Value: 1},
	)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if s.At(i).Value != float64(i) {
			t.Errorf("sample %d value = %v, want %d", i, s.At(i).Value, i)
		}
	}
}

func TestFromValues(t *testing.T) {
	s := FromValues(100*time.Millisecond, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.At(2).At != 200*time.Millisecond {
		t.Errorf("At(2).At = %v, want 200ms", s.At(2).At)
	}
	if s.Duration() != 200*time.Millisecond {
		t.Errorf("Duration = %v, want 200ms", s.Duration())
	}
}

func TestAppendPanicsOnRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append out of order did not panic")
		}
	}()
	s := New()
	s.Append(time.Second, 1)
	s.Append(0, 2)
}

func TestValidateDetectsDisorder(t *testing.T) {
	s := &Series{samples: []Sample{{At: time.Second}, {At: 0}}}
	if err := s.Validate(); !errors.Is(err, ErrUnordered) {
		t.Errorf("Validate = %v, want ErrUnordered", err)
	}
}

func TestStats(t *testing.T) {
	s := FromValues(time.Second, 10, 20, 30, 40)
	if got := s.Mean(); got != 25 {
		t.Errorf("Mean = %v, want 25", got)
	}
	if got := s.Min(); got != 10 {
		t.Errorf("Min = %v, want 10", got)
	}
	if got := s.Max(); got != 40 {
		t.Errorf("Max = %v, want 40", got)
	}
}

func TestEmptyStats(t *testing.T) {
	s := New()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("stats of empty series should be 0")
	}
	if s.Duration() != 0 {
		t.Error("Duration of empty series should be 0")
	}
}

func TestValueAt(t *testing.T) {
	s := FromValues(time.Second, 1, 2, 3)
	tests := []struct {
		at   time.Duration
		want float64
		ok   bool
	}{
		{-time.Second, 0, false},
		{0, 1, true},
		{500 * time.Millisecond, 1, true},
		{time.Second, 2, true},
		{5 * time.Second, 3, true},
	}
	for _, tt := range tests {
		got, ok := s.ValueAt(tt.at)
		if got != tt.want || ok != tt.ok {
			t.Errorf("ValueAt(%v) = (%v, %v), want (%v, %v)", tt.at, got, ok, tt.want, tt.ok)
		}
	}
}

func TestEnergyConstantPower(t *testing.T) {
	// 100 W sampled every 100 ms for 10 s => 1000 J.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 100
	}
	s := FromValues(100*time.Millisecond, vals...)
	got := s.Energy(100 * time.Millisecond)
	if math.Abs(float64(got)-1000) > 1e-9 {
		t.Errorf("Energy = %v, want 1000 J", got)
	}
	// Dropping the hold loses one interval: 990 J.
	got = s.Energy(0)
	if math.Abs(float64(got)-990) > 1e-9 {
		t.Errorf("Energy without hold = %v, want 990 J", got)
	}
}

func TestEnergyStepPower(t *testing.T) {
	// 10 W for 1 s then 20 W for 1 s => 30 J.
	s := New(Sample{0, 10}, Sample{time.Second, 20})
	got := s.Energy(time.Second)
	if math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("Energy = %v, want 30 J", got)
	}
}

// sliceOf is the part of s sampled in [from, to).
func sliceOf(s *Series, from, to time.Duration) *Series {
	out := New()
	for _, sm := range s.samples {
		if sm.At >= from && sm.At < to {
			out.samples = append(out.samples, sm)
		}
	}
	return out
}

func TestStableWindowFindsQuietMiddle(t *testing.T) {
	// 30 s at 10 Hz: noisy first 10 s, flat middle, noisy last 10 s.
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		v := 50.0
		sec := at.Seconds()
		if sec < 10 || sec >= 20 {
			v += rng.Float64()*20 - 10
		}
		samples = append(samples, Sample{At: at, Value: v})
	}
	s := New(samples...)
	from, to, err := s.StableWindowBounds(10 * time.Second)
	if err != nil {
		t.Fatalf("StableWindowBounds: %v", err)
	}
	if from < 9*time.Second || from > 11*time.Second {
		t.Errorf("stable window starts at %v, want ~10s", from)
	}
	// The window is inclusive of its end sample, so at most one noisy
	// boundary sample can leak in; the bulk must be the flat region.
	w := sliceOf(s, from, to+1)
	mean, ss := w.Mean(), 0.0
	for i := 0; i < w.Len(); i++ {
		d := w.At(i).Value - mean
		ss += d * d
	}
	if sd := math.Sqrt(ss / float64(w.Len())); sd > 1.0 {
		t.Errorf("stable window stddev = %v, want < 1", sd)
	}
}

func TestStableWindowErrors(t *testing.T) {
	if _, _, err := New().StableWindowBounds(time.Second); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty series error = %v, want ErrEmpty", err)
	}
	s := FromValues(time.Second, 1, 2)
	if _, _, err := s.StableWindowBounds(10 * time.Second); err == nil {
		t.Error("short series should error")
	}
}

// Property: energy of a scaled series is the scaled energy.
func TestEnergyScaleProperty(t *testing.T) {
	f := func(raw []float64, k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) || math.Abs(k) > 1e6 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			vals = append(vals, v)
		}
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * k
		}
		s := FromValues(100*time.Millisecond, vals...)
		e1 := float64(FromValues(100*time.Millisecond, scaled...).Energy(100 * time.Millisecond))
		e2 := k * float64(s.Energy(100*time.Millisecond))
		return math.Abs(e1-e2) <= 1e-6*(1+math.Abs(e2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelation(t *testing.T) {
	a := FromValues(time.Second, 1, 2, 3, 4, 5)
	if got := Correlation(a, a, time.Second); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %v, want 1", got)
	}
	b := FromValues(time.Second, 5, 4, 3, 2, 1)
	if got := Correlation(a, b, time.Second); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %v, want -1", got)
	}
	// Scaled and offset copies stay perfectly correlated.
	if got := Correlation(a, FromValues(time.Second, 13, 16, 19, 22, 25), time.Second); math.Abs(got-1) > 1e-12 {
		t.Errorf("affine correlation = %v, want 1", got)
	}
	// Only the overlap counts: b held from 2 s on rises with a there.
	late := New(Sample{2 * time.Second, 10}, Sample{3 * time.Second, 20}, Sample{4 * time.Second, 30}, Sample{5 * time.Second, 0})
	if got := Correlation(a, late, time.Second); math.Abs(got-1) > 1e-12 {
		t.Errorf("partial-overlap correlation = %v, want 1", got)
	}
	// Constant series: undefined → 0.
	c := FromValues(time.Second, 7, 7, 7, 7, 7)
	if got := Correlation(a, c, time.Second); got != 0 {
		t.Errorf("constant correlation = %v, want 0", got)
	}
	// No overlap → 0.
	d := New(Sample{100 * time.Second, 1}, Sample{101 * time.Second, 2})
	if got := Correlation(a, d, time.Second); got != 0 {
		t.Errorf("no-overlap correlation = %v, want 0", got)
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestCorrelationProperties(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		clean := func(raw []float64) []float64 {
			vals := make([]float64, 0, len(raw))
			for _, v := range raw {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
					continue
				}
				vals = append(vals, v)
			}
			return vals
		}
		a := FromValues(time.Second, clean(rawA)...)
		b := FromValues(time.Second, clean(rawB)...)
		r1 := Correlation(a, b, time.Second)
		r2 := Correlation(b, a, time.Second)
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// quadraticStableWindow is the pre-prefix-sum reference implementation of
// StableWindowBounds' search: per-sample variance recomputed from scratch for
// every candidate window. It returns the chosen [best, bestEnd) extent and
// the winning score, or best = -1 when no window fits.
func quadraticStableWindow(s *Series, window time.Duration) (best, bestEnd int, bestScore float64) {
	best, bestEnd = -1, -1
	bestScore = math.Inf(1)
	for i := range s.samples {
		j := i
		for j < len(s.samples) && s.samples[j].At-s.samples[i].At <= window {
			j++
		}
		if s.samples[j-1].At-s.samples[i].At < window {
			continue
		}
		score := quadraticScore(s.samples[i:j])
		if score < bestScore {
			bestScore = score
			best, bestEnd = i, j
		}
	}
	return best, bestEnd, bestScore
}

func quadraticScore(w []Sample) float64 {
	mean := 0.0
	for _, sm := range w {
		mean += sm.Value
	}
	mean /= float64(len(w))
	ss := 0.0
	for _, sm := range w {
		d := sm.Value - mean
		ss += d * d
	}
	return ss / float64(len(w))
}

// Property: the O(n) prefix-sum StableWindowBounds picks the same window
// as the quadratic reference whenever the winner is unique, and never a
// window more than a rounding tolerance worse than the optimum when
// windows tie.
func TestStableWindowMatchesQuadraticReference(t *testing.T) {
	const window = time.Second
	f := func(raw []uint16, gaps []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		s := &Series{}
		at := time.Duration(0)
		for i, u := range raw {
			if len(gaps) > 0 {
				// Occasional multi-period gaps exercise the "tail too
				// short" skips inside the search.
				at += time.Duration(gaps[i%len(gaps)]%4) * 100 * time.Millisecond
			}
			s.Append(at, float64(u)/65535*500) // realistic watt range
			at += 100 * time.Millisecond
		}
		best, bestEnd, bestScore := quadraticStableWindow(s, window)
		from, to, err := s.StableWindowBounds(window)
		if best < 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		got := sliceOf(s, from, to+1)
		want := New(s.samples[best:bestEnd]...)
		if got.Len() == want.Len() && got.Start() == want.Start() {
			return true
		}
		// The implementations disagreed: acceptable only if the quadratic
		// scores tie within prefix-sum rounding tolerance.
		const tol = 1e-3
		for i := 0; i < s.Len(); i++ {
			if s.At(i).At == got.Start() {
				return quadraticScore(s.samples[i:i+got.Len()]) <= bestScore+tol
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// StableWindowBounds reports typed errors so callers can distinguish an
// empty series from one that is merely too short.
func TestStableWindowTypedErrors(t *testing.T) {
	if _, _, err := New().StableWindowBounds(time.Second); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty series error = %v, want ErrEmpty", err)
	}
	short := FromValues(time.Second, 1, 2)
	if _, _, err := short.StableWindowBounds(10 * time.Second); !errors.Is(err, ErrTooShort) {
		t.Errorf("short series error = %v, want ErrTooShort", err)
	}
	// Long enough span, but a sample gap leaves no contiguous window.
	gappy := New(Sample{At: 0, Value: 1}, Sample{At: 3 * time.Second, Value: 2})
	if _, _, err := gappy.StableWindowBounds(time.Second); !errors.Is(err, ErrTooShort) {
		t.Errorf("gappy series error = %v, want ErrTooShort", err)
	}
}
