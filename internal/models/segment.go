package models

import (
	"time"

	"powerdiv/internal/units"
)

// SegmentTicks describes a run of consecutive ticks whose inputs are
// identical except for the timestamp and the machine power reading — the
// model-side view of a simulator segment (machine.Segment). The embedded
// Tick carries the shared fields (interval, frequency, degraded flag,
// roster, samples); its At and MachinePower are those of the segment's
// first tick. Powers holds every tick's machine power, and At(i) derives
// every tick's timestamp.
//
// The contract mirrors the simulator's: between change-points the dense
// sample column is constant, so a model whose per-tick work factors into
// "weights from samples" × "scale by power" can evaluate the weights once
// per segment.
type SegmentTicks struct {
	Tick
	// Powers is the per-tick machine power; len(Powers) is the segment's
	// tick count and Powers[0] equals Tick.MachinePower.
	Powers []units.Watts
}

// TickCount returns the number of ticks the segment covers.
func (s *SegmentTicks) TickCount() int { return len(s.Powers) }

// At returns the timestamp of the segment's i-th tick. Timestamps are
// exact multiples of the interval, so the addition reproduces the
// simulator's tick grid bit for bit.
func (s *SegmentTicks) At(i int) time.Duration {
	return s.Tick.At + time.Duration(i)*s.Interval
}

// tickAt materialises the i-th per-tick view of the segment.
func (s *SegmentTicks) tickAt(i int) Tick {
	t := s.Tick
	t.At = s.At(i)
	t.MachinePower = s.Powers[i]
	return t
}

// SegmentModel is the division itself: every built-in model implements
// only this method, and its per-tick entry points are one-tick segments
// over it. ObserveSegmentInto observes every tick of seg in order, writing
// tick i's roster-indexed estimate row to out[i*n:(i+1)*n] (n = len(
// seg.Samples)) and its estimate flag to ok[i]. out arrives zeroed and ok
// false; rows of not-OK ticks must be left (or restored to) zero.
//
// Observing a segment must be bit-identical — estimates, flags, and any
// calibration state the model carries across ticks — to observing its
// ticks one by one as one-tick segments; the equivalence tests pin this
// for every built-in model. A model instance must be driven in tick order
// through exactly one entry-point style for its whole lifetime.
type SegmentModel interface {
	DenseModel
	ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool)
}

// shareOutSegment applies ShareOutInto across a segment: w holds the
// ticks' shared weight column, and each of the nt rows of out receives
// its tick's power divided in proportion — row[i] = power_k·w[i]/total,
// with exactly ShareOutInto's operation order and negative-weight
// clamping, so every row is bit-identical to a per-tick ShareOutInto over
// a copy of w. When no weight is positive every tick is marked not-OK
// and the rows stay zero, mirroring ShareOutInto's false.
//
// w may alias the first row of out: rows are stamped last to first, and
// the first row's element-wise rewrite reads each weight before
// overwriting it.
func shareOutSegment(powers []units.Watts, w []units.Watts, out []units.Watts, ok []bool) bool {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += float64(x)
		}
	}
	n := len(w)
	if total <= 0 {
		for k := range powers {
			ok[k] = false
		}
		// w may be the first output row; rows must stay zero on failure.
		clear(w)
		return false
	}
	for k := len(powers) - 1; k >= 0; k-- {
		p := float64(powers[k])
		row := out[k*n : (k+1)*n]
		for i, x := range w {
			xf := float64(x)
			if xf < 0 {
				xf = 0
			}
			row[i] = units.Watts(p * xf / total)
		}
		ok[k] = true
	}
	return true
}
