package division

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"powerdiv/internal/units"
)

func TestBaselineActive(t *testing.T) {
	b := Baseline{ID: "p", Total: 74, Residual: 36, Cores: 6}
	if got := b.Active(); got != 38 {
		t.Errorf("Active = %v, want 38", got)
	}
	if got := b.ActivePerCore(); math.Abs(float64(got)-38.0/6) > 1e-9 {
		t.Errorf("ActivePerCore = %v", got)
	}
	if got := (Baseline{Total: 10}).ActivePerCore(); got != 0 {
		t.Errorf("zero-core ActivePerCore = %v, want 0", got)
	}
}

func TestNaiveEstimateUnderCoversByResidual(t *testing.T) {
	// Fig 2 / Eq 1: with two identical apps, C_S = R + 2a but each naive
	// estimate is only a, so the sum misses R.
	var r, a units.Watts = 36, 20
	cPair := r + 2*a
	cSolo := r + a
	est := NaiveEstimate(cPair, cSolo)
	if est != a {
		t.Errorf("naive estimate = %v, want %v", est, a)
	}
	if got := cPair - 2*est; got != r {
		t.Errorf("under-coverage = %v, want R = %v", got, r)
	}
}

func TestEstimateWithPolicy(t *testing.T) {
	// Eq 2 with x = 0.5: active difference plus half the residual.
	got := EstimateWithPolicy(40, 20, 36, 0.5)
	if got != 38 {
		t.Errorf("estimate = %v, want 38", got)
	}
	// x = 0 reduces to the pure active difference (family F3).
	if got := EstimateWithPolicy(40, 20, 36, 0); got != 20 {
		t.Errorf("x=0 estimate = %v, want 20", got)
	}
}

func TestTruthSharesEq3(t *testing.T) {
	bs := []Baseline{
		{ID: "a", Total: 57, Residual: 36}, // active 21
		{ID: "b", Total: 43, Residual: 36}, // active 7
	}
	s := TruthShares(bs)
	if math.Abs(s["a"]-0.75) > 1e-9 || math.Abs(s["b"]-0.25) > 1e-9 {
		t.Errorf("shares = %v, want a=0.75 b=0.25", s)
	}
}

func TestTruthSharesResidualAware(t *testing.T) {
	// §IV-B: capped P0 (residual 15+idle) vs uncapped P1 (residual 28+idle)
	// — the residual delta goes to P1.
	bs := []Baseline{
		{ID: "p0", Total: 31, Residual: 22}, // active 9
		{ID: "p1", Total: 72, Residual: 36}, // active 36, ΔR = 14
	}
	s := ResidualAwareTruthInto(make([]float64, 2), bs)
	wantP1 := (36.0 + 14.0) / (9 + 36 + 14)
	if math.Abs(s[1]-wantP1) > 1e-9 {
		t.Errorf("p1 share = %v, want %v", s[1], wantP1)
	}
	// With equal residuals it reduces to Eq 3.
	eq := []Baseline{
		{ID: "a", Total: 57, Residual: 36},
		{ID: "b", Total: 43, Residual: 36},
	}
	s1, s2 := TruthVectorInto(make([]float64, 2), eq, nil), ResidualAwareTruthInto(make([]float64, 2), eq)
	for slot := range s1 {
		if math.Abs(s1[slot]-s2[slot]) > 1e-12 {
			t.Errorf("equal-residual mismatch for %s: %v vs %v", eq[slot].ID, s1[slot], s2[slot])
		}
	}
}

func TestTruthSharesNominalResidual(t *testing.T) {
	// Fig 9b objective: weights are C_{P_i} − R_0.
	bs := []Baseline{
		{ID: "p0", Total: 20},
		{ID: "p1", Total: 74},
	}
	s := NominalResidualTruthInto(make([]float64, 2), bs, 15)
	wantP0 := 5.0 / (5 + 59)
	if math.Abs(s[0]-wantP0) > 1e-9 {
		t.Errorf("p0 share = %v, want %v", s[0], wantP0)
	}
}

func TestFamilyShares(t *testing.T) {
	bs := []Baseline{
		{ID: "a", Total: 60, Residual: 36}, // active 24
		{ID: "b", Total: 44, Residual: 36}, // active 8
	}
	f1, err := FamilyShares(F1, bs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f1["a"]-0.75) > 1e-9 {
		t.Errorf("F1 a = %v, want 0.75", f1["a"])
	}
	f2, err := FamilyShares(F2, bs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f2["a"]-60.0/104) > 1e-9 {
		t.Errorf("F2 a = %v, want %v", f2["a"], 60.0/104)
	}
	f3, err := FamilyShares(F3, bs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f3["a"]-f1["a"]) > 1e-12 {
		t.Error("F3 active shares should equal F1's")
	}
	if _, err := FamilyShares(Family(99), bs); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestFamilyStrings(t *testing.T) {
	if F1.String() != "F1" || F2.String() != "F2" || F3.String() != "F3" {
		t.Error("family names wrong")
	}
	if Family(9).String() != "Family(9)" {
		t.Error("unknown family name wrong")
	}
}

func TestActiveFromEstimateEq4(t *testing.T) {
	// Ce = 40 of C = 80 with R = 36: Ae = 40 − 36×0.5 = 22.
	if got := ActiveFromEstimate(40, 80, 36); got != 22 {
		t.Errorf("Ae = %v, want 22", got)
	}
	if got := ActiveFromEstimate(40, 0, 36); got != 0 {
		t.Errorf("zero machine power Ae = %v, want 0", got)
	}
}

// Eq 4 round-trip: distributing R by estimate share and extracting it back
// recovers the original active estimate.
func TestEq4RoundTrip(t *testing.T) {
	f := func(ae0, ae1, r float64) bool {
		ae0 = 1 + math.Abs(math.Mod(ae0, 100))
		ae1 = 1 + math.Abs(math.Mod(ae1, 100))
		r = math.Abs(math.Mod(r, 100))
		// An F1 model computes Ce_i = (A + R) × ae_i/(ae0+ae1).
		a := ae0 + ae1
		c := a + r
		ce0 := units.Watts(c * ae0 / a)
		back := ActiveFromEstimate(ce0, units.Watts(c), units.Watts(r))
		return math.Abs(float64(back)-ae0) < 1e-9*(1+ae0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatioPercent(t *testing.T) {
	if got := RatioPercent(10, 10); got != 0 {
		t.Errorf("equal ratio = %v, want 0", got)
	}
	if got := RatioPercent(5, 10); got != 50 {
		t.Errorf("half ratio = %v, want 50", got)
	}
	if got := RatioPercent(20, 10); got != -100 {
		t.Errorf("double ratio = %v, want -100", got)
	}
	if got := RatioPercent(1, 0); got != 0 {
		t.Errorf("zero denominator = %v, want 0", got)
	}
}

func TestAbsoluteErrorEq5(t *testing.T) {
	truth := Shares{"a": 0.6, "b": 0.4}
	ests := []map[string]units.Watts{
		{"a": 60, "b": 40}, // perfect
		{"a": 50, "b": 50}, // off by 0.1 each
		nil,                // learning drop: skipped
		{"a": 100, "b": 0}, // off by 0.4 each
	}
	power := []units.Watts{100, 100, 100, 100}
	got, err := AbsoluteError(ests, power, ConstShares(4, truth))
	if err != nil {
		t.Fatal(err)
	}
	want := (0 + 0 + 0.1 + 0.1 + 0.4 + 0.4) / 6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AE = %v, want %v", got, want)
	}
}

func TestAbsoluteErrorEdgeCases(t *testing.T) {
	if _, err := AbsoluteError(nil, nil, nil); !errors.Is(err, ErrEmptyScoring) {
		t.Errorf("empty error = %v, want ErrEmptyScoring", err)
	}
	if _, err := AbsoluteError(make([]map[string]units.Watts, 2), make([]units.Watts, 1), make([]Shares, 2)); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// All-nil estimates → no scorable ticks.
	ests := make([]map[string]units.Watts, 3)
	power := []units.Watts{100, 100, 100}
	if _, err := AbsoluteError(ests, power, ConstShares(3, Shares{"a": 1})); !errors.Is(err, ErrEmptyScoring) {
		t.Errorf("all-nil error = %v, want ErrEmptyScoring", err)
	}
	// Missing process in the estimate counts as a zero attribution.
	got, err := AbsoluteError(
		[]map[string]units.Watts{{"a": 100}},
		[]units.Watts{100},
		ConstShares(1, Shares{"a": 0.5, "b": 0.5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("missing-proc AE = %v, want 0.5", got)
	}
}

// Property: AE is 0 exactly when the model reproduces the truth shares, and
// never exceeds the worst-case bound 2(1−1/n) for shares.
func TestAbsoluteErrorBounds(t *testing.T) {
	f := func(sa, ea float64) bool {
		sa = math.Abs(math.Mod(sa, 1))
		ea = math.Abs(math.Mod(ea, 1))
		truth := Shares{"a": sa, "b": 1 - sa}
		est := map[string]units.Watts{
			"a": units.Watts(100 * ea),
			"b": units.Watts(100 * (1 - ea)),
		}
		got, err := AbsoluteError([]map[string]units.Watts{est}, []units.Watts{100}, ConstShares(1, truth))
		if err != nil {
			return false
		}
		want := math.Abs(ea - sa) // symmetric for 2 procs
		return math.Abs(got-want) < 1e-9 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeProperties(t *testing.T) {
	f := func(w0, w1, w2 float64) bool {
		// Bound to a physical range; power weights are watts-scale.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		w0, w1, w2 = clamp(w0), clamp(w1), clamp(w2)
		weights := map[string]float64{"a": w0, "b": w1, "c": w2}
		s := normalize(weights)
		if s == nil {
			// Valid only when nothing is positive.
			return w0 <= 0 && w1 <= 0 && w2 <= 0
		}
		var sum float64
		for _, v := range s {
			if v < 0 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSharesIDs(t *testing.T) {
	s := Shares{"b": 0.5, "a": 0.5}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v, want [a b]", ids)
	}
}
