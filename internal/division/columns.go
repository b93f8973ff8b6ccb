package division

import (
	"fmt"

	"powerdiv/internal/units"
)

// AbsentShare is the sentinel marking a roster slot outside a tick's
// objective in a dense truth vector (Shares.Vector). It must be negative:
// zero is a legitimate share that Equation 5 scores, absent is not scored
// at all.
const AbsentShare = -1.0

// Vector projects the shares onto a roster ID order: out[i] is the share
// of ids[i], or AbsentShare when the ID has no entry in the map. ids must
// be sorted (roster order) and cover every key of s, so that scoring the
// vector visits exactly the map's keys in exactly IDs() order — the
// property that keeps AbsoluteErrorColumns bit-identical to AbsoluteError.
func (s Shares) Vector(ids []string) []float64 {
	return s.VectorInto(make([]float64, len(ids)), ids)
}

// VectorInto is Vector writing into a caller-owned buffer (which must have
// len(ids) entries), so scoring loops can reuse one vector per scenario.
func (s Shares) VectorInto(out []float64, ids []string) []float64 {
	for i, id := range ids {
		v, ok := s[id]
		if !ok {
			v = AbsentShare
		}
		out[i] = v
	}
	return out
}

// TruthVectorInto is Equation 3 over a dense roster, written into out:
// baselines[i] is the isolated baseline of roster slot i, present[i] puts
// slot i in the objective, and out[i] becomes that slot's share of the
// present active power, or AbsentShare when the slot is absent (out,
// baselines and present have one entry per slot). It returns nil when no
// present weight is positive — the tick is not scorable — and out
// otherwise.
//
// The result is bit-identical to TruthShares(present baselines).Vector(ids)
// when ids is the roster (sort.Strings order, each baseline keyed by its
// slot's ID): normalize sums the positive weights in sorted-ID order,
// which is slot order, clamps negative weights to 0 and divides each by
// the same total — the same operations in the same order, without the
// weights map, sorted key slice and Shares map.
func TruthVectorInto(out []float64, baselines []Baseline, present []bool) []float64 {
	var total float64
	for slot, b := range baselines {
		if w := float64(b.Active()); present[slot] && w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	for slot, b := range baselines {
		if !present[slot] {
			out[slot] = AbsentShare
			continue
		}
		w := float64(b.Active())
		if w < 0 {
			w = 0
		}
		out[slot] = w / total
	}
	return out
}

// ErrorSum accumulates Equation 5 one tick at a time: the running sum of
// |Ce/C − share| over the scored slots and the number of terms. Adding
// ticks in order and taking Mean is exactly AbsoluteErrorColumns over the
// same ticks — each term joins the one running total in the same order —
// without collecting the scored columns first. The zero value is empty.
type ErrorSum struct {
	sum float64
	n   int
}

// Add scores one tick: est is the model's estimate column (nil = no
// estimate), power the measured machine power and truth the objective
// share vector (nil = not scorable; AbsentShare entries are not scored).
// Ticks with a nil column or non-positive power add nothing.
func (a *ErrorSum) Add(est []units.Watts, power units.Watts, truth []float64) {
	if est == nil || truth == nil || power <= 0 {
		return
	}
	for slot, share := range truth {
		if share < 0 {
			continue
		}
		ce := est[slot] // a zero column entry counts as 0, an attribution error
		a.sum += absf(float64(ce)/float64(power) - share)
		a.n++
	}
}

// Mean returns the absolute error over every term added, or
// ErrEmptyScoring when none was.
func (a *ErrorSum) Mean() (float64, error) {
	if a.n == 0 {
		return 0, ErrEmptyScoring
	}
	return a.sum / float64(a.n), nil
}

// AbsoluteErrorColumns is Equation 5 over roster-indexed columns: ests[i]
// is the model's estimate column at scored tick i (nil = no estimate,
// skipped), power[i] the measured machine power, truths[i] the objective
// share vector (nil = skipped; entries equal to AbsentShare mark slots
// outside the tick's objective). It produces bit-identical results to
// AbsoluteError on the equivalent map inputs: slots are visited in roster
// order, which is the sorted-ID order the map form sums in.
func AbsoluteErrorColumns(ests [][]units.Watts, power []units.Watts, truths [][]float64) (float64, error) {
	if len(ests) != len(power) || len(ests) != len(truths) {
		return 0, fmt.Errorf("division: mismatched lengths %d/%d/%d", len(ests), len(power), len(truths))
	}
	var acc ErrorSum
	for i, est := range ests {
		acc.Add(est, power[i], truths[i])
	}
	return acc.Mean()
}

// AbsoluteErrorColumnsConst is AbsoluteErrorColumns with the same truth
// vector at every tick — the common campaign case, where the objective is
// fixed per scenario. It is exactly AbsoluteErrorColumns over
// ConstVectors(len(ests), truth) without materialising the replicated
// pointer slice: same slot visit order, same accumulation order, same
// result bit for bit.
func AbsoluteErrorColumnsConst(ests [][]units.Watts, power []units.Watts, truth []float64) (float64, error) {
	if len(ests) != len(power) {
		return 0, fmt.Errorf("division: mismatched lengths %d/%d", len(ests), len(power))
	}
	var acc ErrorSum
	for i, est := range ests {
		acc.Add(est, power[i], truth)
	}
	return acc.Mean()
}
