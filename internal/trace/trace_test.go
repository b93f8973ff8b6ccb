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
	if got := s.Spread(); got != 30 {
		t.Errorf("Spread = %v, want 30", got)
	}
	wantSD := math.Sqrt((225 + 25 + 25 + 225) / 4)
	if got := s.Stddev(); math.Abs(got-wantSD) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", got, wantSD)
	}
}

func TestEmptyStats(t *testing.T) {
	s := New()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 {
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

func TestSliceAndShiftAndScale(t *testing.T) {
	s := FromValues(time.Second, 0, 1, 2, 3, 4)
	sl := s.Slice(time.Second, 3*time.Second)
	if sl.Len() != 2 || sl.At(0).Value != 1 || sl.At(1).Value != 2 {
		t.Errorf("Slice = %+v", sl.Samples())
	}
	sh := s.Shift(10 * time.Second)
	if sh.Start() != 10*time.Second || sh.At(0).Value != 0 {
		t.Errorf("Shift start = %v", sh.Start())
	}
	sc := s.Scale(2)
	if sc.At(3).Value != 6 {
		t.Errorf("Scale value = %v, want 6", sc.At(3).Value)
	}
	ac := s.AddConst(100)
	if ac.At(0).Value != 100 {
		t.Errorf("AddConst value = %v, want 100", ac.At(0).Value)
	}
}

func TestResample(t *testing.T) {
	s := New(Sample{0, 1}, Sample{time.Second, 2}, Sample{3 * time.Second, 3})
	r := s.Resample(time.Second)
	want := []float64{1, 2, 2, 3}
	if r.Len() != len(want) {
		t.Fatalf("Resample Len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if r.At(i).Value != w {
			t.Errorf("resampled[%d] = %v, want %v", i, r.At(i).Value, w)
		}
	}
	if s.Resample(0).Len() != 0 {
		t.Error("Resample with period 0 should be empty")
	}
}

func TestBinOpAlignment(t *testing.T) {
	a := FromValues(time.Second, 1, 1, 1, 1)                 // t=0..3
	b := FromValues(time.Second, 2, 2, 2).Shift(time.Second) // t=1..3
	sum := Add(a, b, time.Second)
	if sum.Len() != 3 {
		t.Fatalf("overlap Len = %d, want 3", sum.Len())
	}
	for i := 0; i < sum.Len(); i++ {
		if sum.At(i).Value != 3 {
			t.Errorf("sum[%d] = %v, want 3", i, sum.At(i).Value)
		}
	}
}

func TestBinOpNoOverlap(t *testing.T) {
	a := FromValues(time.Second, 1, 1)
	b := FromValues(time.Second, 2, 2).Shift(10 * time.Second)
	if got := Add(a, b, time.Second); got.Len() != 0 {
		t.Errorf("no-overlap Add Len = %d, want 0", got.Len())
	}
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
	w, err := s.StableWindow(10 * time.Second)
	if err != nil {
		t.Fatalf("StableWindow: %v", err)
	}
	if w.Start() < 9*time.Second || w.Start() > 11*time.Second {
		t.Errorf("stable window starts at %v, want ~10s", w.Start())
	}
	// The window is inclusive of its end sample, so at most one noisy
	// boundary sample can leak in; the bulk must be the flat region.
	if w.Stddev() > 1.0 {
		t.Errorf("stable window stddev = %v, want < 1", w.Stddev())
	}
}

func TestStableWindowErrors(t *testing.T) {
	if _, err := New().StableWindow(time.Second); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty series error = %v, want ErrEmpty", err)
	}
	s := FromValues(time.Second, 1, 2)
	if _, err := s.StableWindow(10 * time.Second); err == nil {
		t.Error("short series should error")
	}
}

func TestTrimEnds(t *testing.T) {
	s := FromValues(time.Second, 0, 1, 2, 3, 4, 5)
	tr := s.TrimEnds(time.Second)
	if tr.Start() != time.Second || tr.End() != 4*time.Second {
		t.Errorf("TrimEnds spans [%v,%v], want [1s,4s]", tr.Start(), tr.End())
	}
	if New().TrimEnds(time.Second).Len() != 0 {
		t.Error("TrimEnds of empty should be empty")
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
		s := FromValues(100*time.Millisecond, vals...)
		e1 := float64(s.Scale(k).Energy(100 * time.Millisecond))
		e2 := k * float64(s.Energy(100*time.Millisecond))
		return math.Abs(e1-e2) <= 1e-6*(1+math.Abs(e2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add(a,b) − b == a on the overlap grid.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		clean := func(raw []float64) []float64 {
			vals := make([]float64, 0, len(raw))
			for _, v := range raw {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
					continue
				}
				vals = append(vals, v)
			}
			return vals
		}
		a := FromValues(time.Second, clean(rawA)...)
		b := FromValues(time.Second, clean(rawB)...)
		sum := Add(a, b, time.Second)
		back := BinOp(sum, b, time.Second, func(x, y float64) float64 { return x - y })
		for i := 0; i < back.Len(); i++ {
			av, ok := a.ValueAt(back.At(i).At)
			if !ok {
				return false
			}
			if math.Abs(back.At(i).Value-av) > 1e-9*(1+math.Abs(av)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: resampling preserves the left-Riemann energy for regularly
// sampled series when resampled at the same period.
func TestResampleEnergyInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			vals = append(vals, v)
		}
		s := FromValues(time.Second, vals...)
		r := s.Resample(time.Second)
		e1 := float64(s.Energy(time.Second))
		e2 := float64(r.Energy(time.Second))
		return math.Abs(e1-e2) <= 1e-6*(1+math.Abs(e1))
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
	// Scaled and shifted copies stay perfectly correlated.
	if got := Correlation(a, a.Scale(3).AddConst(10), time.Second); math.Abs(got-1) > 1e-12 {
		t.Errorf("affine correlation = %v, want 1", got)
	}
	// Constant series: undefined → 0.
	c := FromValues(time.Second, 7, 7, 7, 7, 7)
	if got := Correlation(a, c, time.Second); got != 0 {
		t.Errorf("constant correlation = %v, want 0", got)
	}
	// No overlap → 0.
	d := FromValues(time.Second, 1, 2).Shift(100 * time.Second)
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
// StableWindow's search: per-sample variance recomputed from scratch for
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

// Property: the O(n) prefix-sum StableWindow picks the same window as the
// quadratic reference whenever the winner is unique, and never a window
// more than a rounding tolerance worse than the optimum when windows tie.
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
		got, err := s.StableWindow(window)
		if best < 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
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

// Regression: TrimEnds with 2·trim >= Duration used to invert the Slice
// bounds; it must return an empty series.
func TestTrimEndsDegenerate(t *testing.T) {
	s := FromValues(time.Second, 1, 2, 3) // spans 2s
	for _, trim := range []time.Duration{time.Second, 2 * time.Second, time.Hour} {
		if got := s.TrimEnds(trim); got.Len() != 0 {
			t.Errorf("TrimEnds(%v) of a 2s series has %d samples, want 0", trim, got.Len())
		}
	}
	// Zero trim returns the whole series as an independent copy.
	full := s.TrimEnds(0)
	if full.Len() != 3 {
		t.Errorf("TrimEnds(0) Len = %d, want 3", full.Len())
	}
	full.Append(time.Hour, 9)
	if s.Len() != 3 {
		t.Error("TrimEnds(0) aliases the input series")
	}
	// Inclusive ends: samples exactly trim from either end survive.
	in := s.TrimEnds(500 * time.Millisecond)
	if in.Len() != 1 || in.At(0).At != time.Second {
		t.Errorf("TrimEnds(500ms) = %d samples starting %v, want the middle sample", in.Len(), in.Start())
	}
}

// StableWindow reports typed errors so callers can distinguish an empty
// series from one that is merely too short.
func TestStableWindowTypedErrors(t *testing.T) {
	if _, err := New().StableWindow(time.Second); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty series error = %v, want ErrEmpty", err)
	}
	short := FromValues(time.Second, 1, 2)
	if _, err := short.StableWindow(10 * time.Second); !errors.Is(err, ErrTooShort) {
		t.Errorf("short series error = %v, want ErrTooShort", err)
	}
	// Long enough span, but a sample gap leaves no contiguous window.
	gappy := New(Sample{At: 0, Value: 1}, Sample{At: 3 * time.Second, Value: 2})
	if _, err := gappy.StableWindow(time.Second); !errors.Is(err, ErrTooShort) {
		t.Errorf("gappy series error = %v, want ErrTooShort", err)
	}
}
