package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
)

func TestFamilyAblationProperties(t *testing.T) {
	t.Parallel()
	props, err := FamilyAblation(cpumodel.SmallIntel(), "fibonacci", "matrixprod", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 {
		t.Fatalf("%d families, want 3", len(props))
	}
	byFam := map[division.Family]FamilyProperties{}
	for _, p := range props {
		byFam[p.Family] = p
	}
	// F1 and F2 divide the whole machine power; F3 leaves R unallocated.
	if math.Abs(byFam[division.F1].Coverage-1) > 0.01 {
		t.Errorf("F1 coverage = %.3f, want 1", byFam[division.F1].Coverage)
	}
	if math.Abs(byFam[division.F2].Coverage-1) > 0.01 {
		t.Errorf("F2 coverage = %.3f, want 1", byFam[division.F2].Coverage)
	}
	if byFam[division.F3].Coverage > 0.8 {
		t.Errorf("F3 coverage = %.3f, want well below 1 (R unallocated)", byFam[division.F3].Coverage)
	}
	// F2 preserves the sequential ratio across contexts better than F1
	// (its weights are the isolated totals, which are context-stable
	// because each context re-measures its own baselines... both should
	// drift little, but F2's drift must not exceed F1's meaningfully).
	if byFam[division.F2].RatioDriftPct > byFam[division.F1].RatioDriftPct+1 {
		t.Errorf("F2 drift %.2f%% above F1 drift %.2f%%", byFam[division.F2].RatioDriftPct, byFam[division.F1].RatioDriftPct)
	}
	if !strings.Contains(AblationTable(props).String(), "F1") {
		t.Error("ablation table missing F1")
	}
}

func TestStableWindowAblation(t *testing.T) {
	t.Parallel()
	with, without, err := StableWindowAblation(cpumodel.SmallIntel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both are small; the windowed score must not be worse than the
	// unwindowed one on a noisy machine (it trims the extremes).
	if with > without+0.005 {
		t.Errorf("windowed AE %.4f worse than unwindowed %.4f", with, without)
	}
	if with <= 0 || without <= 0 {
		t.Errorf("degenerate AEs %.4f/%.4f", with, without)
	}
}

func TestLearningWindowAblation(t *testing.T) {
	t.Parallel()
	windows := []time.Duration{2 * time.Second, 10 * time.Second, 20 * time.Second}
	res, err := LearningWindowAblation(cpumodel.SmallIntel(), windows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	// Longer learning windows leave fewer scored ticks.
	if res[2*time.Second][1] <= res[20*time.Second][1] {
		t.Errorf("scored ticks: 2s window %.0f not above 20s window %.0f",
			res[2*time.Second][1], res[20*time.Second][1])
	}
	// Accuracy is unaffected on stationary workloads.
	for w, v := range res {
		if v[0] < 0.005 || v[0] > 0.15 {
			t.Errorf("window %v: AE %.4f out of expected range", w, v[0])
		}
	}
}

func TestSamplePeriodAblation(t *testing.T) {
	t.Parallel()
	periods := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond}
	res, err := SamplePeriodAblation(cpumodel.SmallIntel(), periods, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol is robust to the sampling period on stationary loads:
	// all periods land in the same band.
	var lo, hi float64 = math.Inf(1), 0
	for _, ae := range res {
		lo = math.Min(lo, ae)
		hi = math.Max(hi, ae)
	}
	if hi-lo > 0.02 {
		t.Errorf("AE spread across periods = %.4f, want <0.02 (res=%v)", hi-lo, res)
	}
}

func TestHTEfficiencyAblation(t *testing.T) {
	t.Parallel()
	factors := []float64{0.2, 0.45, 0.7}
	res, err := HTEfficiencyAblation(cpumodel.SmallIntel(), factors, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The §V energy drop shrinks as SMT siblings approach full cores:
	// sub-additivity is what drives the colocation savings.
	if !(res[0.2] > res[0.45] && res[0.45] > res[0.7]) {
		t.Errorf("drop not monotone in SMT efficiency: %v", res)
	}
}

func TestPowerAPIDeterminismAblation(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.Dahu(), 1)
	with, without, err := PowerAPIDeterminismAblation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The pathology accounts for most of PowerAPI's DAHU error: with it
	// disabled, the model lands in the Scaphandre regime.
	if without > 0.08 {
		t.Errorf("deterministic PowerAPI mean = %.4f, want <0.08", without)
	}
	if with < 2*without {
		t.Errorf("pathology contribution too small: %.4f vs %.4f", with, without)
	}
}
