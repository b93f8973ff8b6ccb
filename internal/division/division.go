// Package division implements the paper's formal definition of power
// division (Section III): the notations of Table I, the naive definition of
// Equation 1, the residual-aware definition of Equation 2, the consistent
// ratio allocation of Equation 3, the active-share extraction of Equation 4
// and the absolute error metric of Equation 5 — plus the residual
// allocation families (F1), (F2), (F3) the paper identifies.
//
// Terminology note: throughout this package R denotes the paper's residual
// consumption, which *includes* the idle consumption ("in our case the
// residual consumption includes the idle consumption"): R is everything the
// machine draws under load that per-core activity does not explain, and
// A_{S,t} = C_{S,t} − R is the active consumption.
package division

import (
	"errors"
	"fmt"
	"sort"

	"powerdiv/internal/units"
)

// Family identifies a residual allocation policy family (§III-B):
//
//	F1 splits R in proportion to each application's active consumption —
//	   what Scaphandre, PowerAPI and Kepler implicitly do by dividing the
//	   machine total without modelling R at all;
//	F2 keeps the estimated consumptions of two applications in the same
//	   ratio in parallel as in sequential execution, so R is treated as
//	   part of the application consumption (the family the paper argues
//	   for, since R is caused by applications raising core frequencies);
//	F3 disregards R entirely, so an application's estimate does not
//	   depend on what else runs.
type Family int

// The three families of §III-B; see the Family documentation.
const (
	F1 Family = iota + 1
	F2
	F3
)

// String returns the family's paper name.
func (f Family) String() string {
	switch f {
	case F1:
		return "F1"
	case F2:
		return "F2"
	case F3:
		return "F3"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Baseline is what protocol phase 1 measures about one application running
// alone on the machine (the sequential scenario P_i).
type Baseline struct {
	// ID names the application.
	ID string
	// Total is the machine power while the application ran alone: C_{P_i}.
	Total units.Watts
	// Residual is the residual consumption (idle included) observed during
	// the isolated run: R for uncapped applications, lower for capped ones
	// whose cores duty-cycle (§IV-B).
	Residual units.Watts
	// Cores is the mean number of CPU cores' worth of CPU time consumed.
	Cores float64
}

// Active returns the application's isolated active consumption
// A_{P_i} = C_{P_i} − R.
func (b Baseline) Active() units.Watts { return b.Total - b.Residual }

// ActivePerCore returns the isolated active consumption per core of CPU
// usage, or 0 if the application used no CPU.
func (b Baseline) ActivePerCore() units.Watts {
	if b.Cores <= 0 {
		return 0
	}
	return units.Watts(float64(b.Active()) / b.Cores)
}

// NaiveEstimate is Equation 1: the estimated consumption of P_i is the
// extra consumption that would not be observed without it,
// Ce^{P_i}_{S,t} = C_{S,t} − C_{S/P_i,t}. The paper shows this definition
// is incomplete: summed over applications it under-covers C_{S,t} by R
// (Fig 2), which motivates Equation 2.
func NaiveEstimate(cS, cWithoutPi units.Watts) units.Watts {
	return cS - cWithoutPi
}

// EstimateWithPolicy is Equation 2: Ce^{P_i}_{S,t} = A_{S,t} − A_{S/P_i,t}
// + x·R, where x is the application's residual share under the chosen
// family policy.
func EstimateWithPolicy(aS, aWithoutPi, r units.Watts, x float64) units.Watts {
	return aS - aWithoutPi + units.Watts(x*float64(r))
}

// Shares maps application IDs to fractional shares (summing to 1 whenever
// non-empty).
type Shares map[string]float64

// normalize scales weights into shares through normalizeInto, visiting
// the IDs in sorted order. It returns nil if no weight is positive. The
// sorted order makes the total deterministic: with three or more
// applications a map-order float sum differs in the low bits across runs,
// which would make the objective shares — and every error table derived
// from them — nondeterministic per seed. (Pairs masked this: adding two
// floats is commutative.)
func normalize(weights map[string]float64) Shares {
	ids := make([]string, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w := make([]float64, len(ids))
	for i, id := range ids {
		w[i] = weights[id]
	}
	if normalizeInto(w) == nil {
		return nil
	}
	s := make(Shares, len(ids))
	for i, id := range ids {
		s[id] = w[i]
	}
	return s
}

// normalizeInto is the one normalize kernel, scaling the weights in w into
// shares in place: it sums the positive weights in slot order, clamps
// negative weights to 0 and divides each by the total. It returns nil,
// leaving w unspecified, when no weight is positive, and w otherwise. Over
// a roster (slots in sorted-ID order) it is exactly normalize's arithmetic.
func normalizeInto(w []float64) []float64 {
	var total float64
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return nil
	}
	for i, v := range w {
		if v < 0 {
			v = 0
		}
		w[i] = v / total
	}
	return w
}

// TruthShares is Equation 3: the consistent allocation of active power,
// Ae^{P_i}_{S,t} = A_{S,t} × A_{P_i,t} / Σ_j A_{P_j,t}. It returns each
// application's share of the scenario's active power, computed from the
// isolated baselines, keyed by ID; TruthVectorInto is the same objective
// over a roster. This is the protocol's objective value in the
// uniform-residual case.
func TruthShares(baselines []Baseline) Shares {
	weights := make(map[string]float64, len(baselines))
	for _, b := range baselines {
		weights[b.ID] = float64(b.Active())
	}
	return normalize(weights)
}

// FamilyShares returns the share of the machine total C_{S,t} that each
// application receives under the given family policy, from the isolated
// baselines:
//
//	F1: share of active power, applied to active and residual alike
//	    (equivalently: Ce_i = C_S × A_i/ΣA_j);
//	F2: share of isolated total power, Ce_i = C_S × C_{P_i}/ΣC_{P_j},
//	    preserving the sequential consumption ratio in parallel;
//	F3: share of active power applied to active power only — the
//	    returned shares apply to A_S, not C_S, and deliberately do not
//	    account for R (callers multiplying by A_S under-cover C_S by R,
//	    which is the point of the family).
func FamilyShares(f Family, baselines []Baseline) (Shares, error) {
	switch f {
	case F1, F3:
		return TruthShares(baselines), nil
	case F2:
		weights := make(map[string]float64, len(baselines))
		for _, b := range baselines {
			weights[b.ID] = float64(b.Total)
		}
		return normalize(weights), nil
	default:
		return nil, fmt.Errorf("division: unknown family %d", int(f))
	}
}

// ActiveFromEstimate is Equation 4: extracting the estimated active
// consumption from an F1-family model's estimate,
// Ae^{P_i}_{S,t} = Ce^{P_i}_{S,t} − R × Ce^{P_i}_{S,t} / C_{S,t}.
// It returns 0 if the machine power is not positive.
func ActiveFromEstimate(ce, c, r units.Watts) units.Watts {
	if c <= 0 {
		return 0
	}
	return ce - units.Watts(float64(r)*float64(ce)/float64(c))
}

// RatioPercent is the figure axis transform used by Fig 4–7 and Fig 9:
// 100 − (a/b × 100), centred on 0 so that equal consumptions map to 0,
// negative values mean b consumes more than a, positive the opposite.
func RatioPercent(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 - a/b*100
}

// RatioPoint is one scenario's point on a ratio scatter figure: X the
// sequential (objective) ratio, Y the parallel (estimated) ratio; on a
// perfect model all points lie on y = x.
type RatioPoint struct {
	X, Y float64
	// Label identifies the pair, e.g. "fibonacci-3 vs matrixprod-3".
	Label string
}

// ErrEmptyScoring is returned when no tick could be scored.
var ErrEmptyScoring = errors.New("division: no scorable ticks")

// AbsoluteError is Equation 5: the mean over applications and ticks of
// |Ce^{P_i}_{S,t}/C_{S,t} − A_{P_i,t}/Σ_j A_{P_j,t}|.
//
// ests[i] is the model's estimate at tick i (nil = no estimate, skipped, as
// the paper skips PowerAPI's learning-phase drops); power[i] the measured
// machine power C_{S,t}; truth[i] the objective shares (use ConstShares for
// stationary workloads). Ticks whose truth map is nil are skipped too.
func AbsoluteError(ests []map[string]units.Watts, power []units.Watts, truth []Shares) (float64, error) {
	if len(ests) != len(power) || len(ests) != len(truth) {
		return 0, fmt.Errorf("division: mismatched lengths %d/%d/%d", len(ests), len(power), len(truth))
	}
	var sum float64
	var n int
	for i, est := range ests {
		if est == nil || truth[i] == nil || power[i] <= 0 {
			continue
		}
		// Sorted iteration keeps the floating-point sum bit-reproducible
		// across runs (map order is randomised).
		for _, id := range truth[i].IDs() {
			ce := est[id] // missing estimate counts as 0, an attribution error
			sum += absf(float64(ce)/float64(power[i]) - truth[i][id])
			n++
		}
	}
	if n == 0 {
		return 0, ErrEmptyScoring
	}
	return sum / float64(n), nil
}

// ConstShares replicates one share map across n ticks, for stationary
// workloads whose objective value does not change over the scenario.
func ConstShares(n int, s Shares) []Shares {
	out := make([]Shares, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// IDs returns the share map's application IDs, sorted.
func (s Shares) IDs() []string {
	out := make([]string, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
