// Package trace provides the time-series machinery used by the evaluation
// protocol: power traces, their correlation on an aligned grid,
// integration to energy, and the "stable window" selection the paper
// applies before scoring a model (keeping the 10 seconds with the least
// extreme values of a 30-second run).
//
// A Series is a sequence of (time offset, value) samples. Values are plain
// float64 so the same machinery serves power (watts), CPU utilization,
// frequency and counter rates; functions that are specifically about power
// carry it in their names (Energy, for instance, integrates watts into
// joules).
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"powerdiv/internal/units"
)

// Sample is a single observation at a time offset from the start of the
// observation window.
type Sample struct {
	At    time.Duration
	Value float64
}

// Series is an ordered sequence of samples. Samples must be in
// non-decreasing time order; the constructors and appenders maintain this
// and Validate checks it.
type Series struct {
	samples []Sample
	// sum/sum2 are stableWindowSearch's prefix-sum scratch, kept on the
	// series so a reused scratch series (Reset + Append per scoring call)
	// amortises them too.
	sum, sum2 []float64
}

// ErrUnordered is returned by Validate when samples are out of time order.
var ErrUnordered = errors.New("trace: samples out of time order")

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("trace: empty series")

// ErrTooShort is returned by StableWindowBounds when the series does not
// contain a window of the requested length: either its total span is
// shorter than the window, or sample gaps leave no contiguous run that
// covers it. Callers can distinguish it from ErrEmpty with errors.Is.
var ErrTooShort = errors.New("trace: series shorter than window")

// New returns a Series built from the given samples, sorted by time.
func New(samples ...Sample) *Series {
	s := &Series{samples: append([]Sample(nil), samples...)}
	sort.SliceStable(s.samples, func(i, j int) bool { return s.samples[i].At < s.samples[j].At })
	return s
}

// NewWithCap returns an empty series whose backing store can hold n samples
// before reallocating — for callers that know the sample count up front and
// append tick by tick.
func NewWithCap(n int) *Series {
	if n < 0 {
		n = 0
	}
	return &Series{samples: make([]Sample, 0, n)}
}

// FromValues builds a regularly sampled series: values[i] is the sample at
// i*period.
func FromValues(period time.Duration, values ...float64) *Series {
	s := &Series{samples: make([]Sample, len(values))}
	for i, v := range values {
		s.samples[i] = Sample{At: time.Duration(i) * period, Value: v}
	}
	return s
}

// Append adds a sample at the end of the series. It panics if at is earlier
// than the last sample, since that indicates a sequencing bug in the caller.
func (s *Series) Append(at time.Duration, value float64) {
	if n := len(s.samples); n > 0 && at < s.samples[n-1].At {
		panic(fmt.Sprintf("trace: appending sample at %v before last sample at %v", at, s.samples[n-1].At))
	}
	s.samples = append(s.samples, Sample{At: at, Value: value})
}

// Reset empties the series in place, keeping its backing store — for
// scratch series that are refilled tick by tick on every scoring call.
func (s *Series) Reset() { s.samples = s.samples[:0] }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// At returns the i-th sample.
func (s *Series) At(i int) Sample { return s.samples[i] }

// Samples returns a copy of the underlying samples.
func (s *Series) Samples() []Sample {
	return append([]Sample(nil), s.samples...)
}

// Validate checks time ordering.
func (s *Series) Validate() error {
	for i := 1; i < len(s.samples); i++ {
		if s.samples[i].At < s.samples[i-1].At {
			return fmt.Errorf("%w: sample %d at %v before sample %d at %v",
				ErrUnordered, i, s.samples[i].At, i-1, s.samples[i-1].At)
		}
	}
	return nil
}

// Duration returns the time spanned by the series (last minus first sample
// time), or 0 for series with fewer than two samples.
func (s *Series) Duration() time.Duration {
	if len(s.samples) < 2 {
		return 0
	}
	return s.samples[len(s.samples)-1].At - s.samples[0].At
}

// Start returns the time of the first sample (0 for an empty series).
func (s *Series) Start() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0].At
}

// End returns the time of the last sample (0 for an empty series).
func (s *Series) End() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1].At
}

// ValueAt returns the value of the series at time t using zero-order hold
// (the value of the most recent sample at or before t). ok is false if t is
// before the first sample or the series is empty.
func (s *Series) ValueAt(t time.Duration) (v float64, ok bool) {
	i := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > t })
	if i == 0 {
		return 0, false
	}
	return s.samples[i-1].Value, true
}

// Mean returns the arithmetic mean of the sample values.
// It returns 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, sm := range s.samples {
		sum += sm.Value
	}
	return sum / float64(len(s.samples))
}

// Min returns the minimum sample value (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0].Value
	for _, sm := range s.samples[1:] {
		if sm.Value < m {
			m = sm.Value
		}
	}
	return m
}

// Max returns the maximum sample value (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0].Value
	for _, sm := range s.samples[1:] {
		if sm.Value > m {
			m = sm.Value
		}
	}
	return m
}

// Energy integrates the series, interpreted as power in watts, into joules
// using the left Riemann sum (zero-order hold between samples), which
// matches how RAPL-based meters accumulate energy. The last sample is held
// for `hold`; pass the sampling period, or 0 to drop the final interval.
func (s *Series) Energy(hold time.Duration) units.Joules {
	var e units.Joules
	for i, sm := range s.samples {
		var dt time.Duration
		if i+1 < len(s.samples) {
			dt = s.samples[i+1].At - sm.At
		} else {
			dt = hold
		}
		e += units.Watts(sm.Value).Energy(dt)
	}
	return e
}

// Correlation returns the Pearson correlation coefficient of the two
// series over their overlap, resampled onto a regular grid of the given
// period with zero-order hold. It returns 0 when the overlap is empty or
// either series is constant (correlation undefined).
func Correlation(a, b *Series, period time.Duration) float64 {
	if a.Len() == 0 || b.Len() == 0 || period <= 0 {
		return 0
	}
	from, to := max(a.Start(), b.Start()), min(a.End(), b.End())
	if to < from {
		return 0
	}
	// The grid advances monotonically, so each hold cursor only moves
	// forward: one pass over both series. from is at or after both starts,
	// so every grid point has a hold value in each series.
	grid := int((to-from)/period) + 1
	xs := make([]float64, 0, grid)
	ys := make([]float64, 0, grid)
	ia, ib := 0, 0
	for t := from; t <= to; t += period {
		for ia+1 < len(a.samples) && a.samples[ia+1].At <= t {
			ia++
		}
		for ib+1 < len(b.samples) && b.samples[ib+1].At <= t {
			ib++
		}
		xs = append(xs, a.samples[ia].Value)
		ys = append(ys, b.samples[ib].Value)
	}
	n := len(xs)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// StableWindowBounds locates the contiguous window of the given length
// whose values deviate least from their own mean (minimum sum of squared
// deviations) and returns the times of its first and last sample. This
// implements the paper's selection of "the 10 seconds with the least
// extreme values" from each 30-second run, which removes start-up and
// tear-down transients. It returns ErrEmpty for an empty series and
// ErrTooShort when no window of that length fits.
func (s *Series) StableWindowBounds(window time.Duration) (from, to time.Duration, err error) {
	best, bestEnd, err := s.stableWindowSearch(window)
	if err != nil {
		return 0, 0, err
	}
	return s.samples[best].At, s.samples[bestEnd-1].At, nil
}

// stableWindowSearch locates the least-extreme window [best, bestEnd).
func (s *Series) stableWindowSearch(window time.Duration) (best, bestEnd int, err error) {
	n := len(s.samples)
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	if s.Duration() < window {
		return 0, 0, fmt.Errorf("%w: series spans %v, window is %v", ErrTooShort, s.Duration(), window)
	}
	// Prefix sums of value and value² make every window's score O(1):
	// for [i, j) with m samples, ss = Σv² − (Σv)²/m and score = ss/m.
	// The end cursor j only moves forward as i advances, so the whole
	// search is O(n) instead of O(n·w).
	if cap(s.sum) < n+1 {
		s.sum = make([]float64, n+1)
		s.sum2 = make([]float64, n+1)
	}
	sum, sum2 := s.sum[:n+1], s.sum2[:n+1]
	sum[0], sum2[0] = 0, 0
	for i, sm := range s.samples {
		sum[i+1] = sum[i] + sm.Value
		sum2[i+1] = sum2[i] + sm.Value*sm.Value
	}
	best, bestEnd = -1, -1
	bestScore := math.Inf(1)
	j := 0
	for i := 0; i < n; i++ {
		if j < i {
			j = i
		}
		for j < n && s.samples[j].At-s.samples[i].At <= window {
			j++
		}
		// Window [i, j) spans at least `window` only if the last included
		// sample reaches it; otherwise the tail is too short.
		if s.samples[j-1].At-s.samples[i].At < window {
			continue
		}
		m := float64(j - i)
		sv := sum[j] - sum[i]
		score := ((sum2[j] - sum2[i]) - sv*sv/m) / m
		if score < bestScore {
			bestScore = score
			best, bestEnd = i, j
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("%w: no contiguous window of %v (sample gaps too large)", ErrTooShort, window)
	}
	return best, bestEnd, nil
}
