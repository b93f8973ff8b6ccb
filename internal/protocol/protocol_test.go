package protocol

import (
	"context"
	"math"
	"strings"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

func labSmall() Context {
	return DefaultContext(machine.Config{Spec: cpumodel.SmallIntel(), NoiseStddev: 0.25, Seed: 1})
}

func prodSmall() Context {
	return DefaultContext(machine.Config{
		Spec:           cpumodel.SmallIntel(),
		Hyperthreading: true,
		Turbo:          true,
		NoiseStddev:    0.25,
		Seed:           1,
	})
}

func mustStressApp(t *testing.T, fn string, threads int) AppSpec {
	t.Helper()
	a, err := StressApp(fn, threads)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMeasureBaselineDecomposition(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	app := mustStressApp(t, "matrixprod", 3)
	b, err := measureOne(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	// Total = idle 8 + residual 28 + 3×7.1 = 57.3; paper-R = 36.
	if math.Abs(float64(b.Total)-57.3) > 0.01 {
		t.Errorf("Total = %v, want 57.3", b.Total)
	}
	if math.Abs(float64(b.Residual)-36) > 0.01 {
		t.Errorf("Residual = %v, want 36 (idle included)", b.Residual)
	}
	if math.Abs(float64(b.Active())-21.3) > 0.01 {
		t.Errorf("Active = %v, want 21.3", b.Active())
	}
	if math.Abs(b.Cores-3) > 0.01 {
		t.Errorf("Cores = %v, want 3", b.Cores)
	}
}

func TestMeasureBaselineCapped(t *testing.T) {
	t.Parallel()
	// §IV-B: a 50 %-capped pinned stress shows roughly half the load
	// residual of an uncapped one.
	ctx := labSmall()
	app := mustStressApp(t, "int64", 2)
	app.CPUQuota = 0.5
	app.Pinned = []int{0, 1}
	app.ID = "int64-2-capped"
	b, err := measureOne(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	// Residual (paper def) = idle 8 + 0.5×28 = 22 vs uncapped 36.
	if math.Abs(float64(b.Residual)-22) > 0.01 {
		t.Errorf("capped Residual = %v, want 22", b.Residual)
	}
	if math.Abs(b.Cores-1) > 0.01 {
		t.Errorf("capped Cores = %v, want 1", b.Cores)
	}
}

func TestEstimateResidualMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	// The paper's indirect construction (linear fit of the load curve)
	// must agree with the simulator's ground truth: idle 8 + R(3.6) 28.
	ctx := labSmall()
	probe, _ := workload.StressByName("int64")
	got, err := EstimateResidual(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got)-36) > 1.0 {
		t.Errorf("estimated R = %v, want ≈36", got)
	}
}

func TestEvaluatePairOracleIsNearPerfect(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 3),
		mustStressApp(t, "matrixprod", 3),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluatePair(ctx, s, models.NewOracle(), baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AE > 0.005 {
		t.Errorf("oracle AE = %.4f, want ≈0", ev.AE)
	}
	// Ratio point sits on y = x.
	if math.Abs(ev.Point.X-ev.Point.Y) > 1.5 {
		t.Errorf("oracle ratio point (%.1f, %.1f) off the diagonal", ev.Point.X, ev.Point.Y)
	}
}

func TestEvaluatePairScaphandreWorstPair(t *testing.T) {
	t.Parallel()
	// §IV-A: the maximum error on SMALL INTEL is ≈11.7 %, for FIBONACCI
	// against a top consumer.
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 3),
		mustStressApp(t, "matrixprod", 3),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluatePair(ctx, s, models.NewScaphandre(), baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AE < 0.10 || ev.AE > 0.13 {
		t.Errorf("fibonacci/matrixprod AE = %.4f, want ≈0.117", ev.AE)
	}
	// Scaphandre splits equal CPU time 50/50: estimated ratio ≈0.
	if math.Abs(ev.Point.Y) > 3 {
		t.Errorf("estimated ratio %.1f, want ≈0 for same-size pair", ev.Point.Y)
	}
	// Objective ratio is far from 0 (fibonacci ≪ matrixprod).
	if ev.Point.X < 20 {
		t.Errorf("objective ratio %.1f, want ≫ 0", ev.Point.X)
	}
}

func TestEvaluatePairF2IsNearPerfect(t *testing.T) {
	t.Parallel()
	// The F2 reference model preserves baseline ratios by construction, so
	// under Eq 3 scoring on a lab-context machine it should be near 0.
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 3),
		mustStressApp(t, "matrixprod", 3),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]units.Watts{}
	for id, b := range baselines {
		base[id] = b.ActivePerCore()
	}
	f2 := models.NewF2(base)
	ev, err := evaluatePair(ctx, s, f2, baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AE > 0.01 {
		t.Errorf("F2 AE = %.4f, want ≈0", ev.AE)
	}
}

func TestEvaluatePairErrors(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{mustStressApp(t, "fibonacci", 3)}}
	if _, err := evaluatePair(ctx, s, models.NewScaphandre(), nil, ObjectiveActive); err == nil {
		t.Error("single-app scenario accepted")
	}
	pair := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 3),
		mustStressApp(t, "matrixprod", 3),
	}}
	if _, err := evaluatePair(ctx, pair, models.NewScaphandre(), map[string]division.Baseline{}, ObjectiveActive); err == nil {
		t.Error("missing baselines accepted")
	}
	if _, err := evaluatePair(ctx, pair, models.NewScaphandre(), map[string]division.Baseline{
		"fibonacci-3":  {ID: "fibonacci-3", Total: 50, Residual: 36},
		"matrixprod-3": {ID: "matrixprod-3", Total: 57, Residual: 36},
	}, Objective(99)); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestStressPairsGeneration(t *testing.T) {
	t.Parallel()
	fns := []string{"a", "b", "c"}
	// Stress names must exist for StressApp; use real ones.
	fns = []string{"fibonacci", "matrixprod", "queens"}
	scenarios, err := StressPairs(fns, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same-size: C(3,2)=3 pairs × 2 sizes = 6; diff-size: 3×3 = 9.
	if len(scenarios) != 15 {
		t.Fatalf("generated %d scenarios, want 15", len(scenarios))
	}
	same, diff := 0, 0
	for _, s := range scenarios {
		if len(s.Apps) != 2 {
			t.Fatalf("scenario %q has %d apps", s.Label(), len(s.Apps))
		}
		if s.SameSize() {
			same++
			if s.Apps[0].ID == s.Apps[1].ID {
				t.Errorf("same-size scenario with identical apps: %s", s.Label())
			}
		} else {
			diff++
		}
	}
	if same != 6 || diff != 9 {
		t.Errorf("same/diff = %d/%d, want 6/9", same, diff)
	}
	if _, err := StressPairs([]string{"nosuch"}, []int{1, 1}); err == nil {
		t.Error("unknown stress function accepted")
	}
}

func TestAppsOfDeduplicates(t *testing.T) {
	t.Parallel()
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	apps := AppsOf(scenarios)
	// 2 functions × 2 sizes = 4 distinct applications.
	if len(apps) != 4 {
		t.Errorf("AppsOf = %d apps, want 4", len(apps))
	}
	for i := 1; i < len(apps); i++ {
		if apps[i-1].ID >= apps[i].ID {
			t.Error("AppsOf not sorted")
		}
	}
}

func TestSizesAndContention(t *testing.T) {
	t.Parallel()
	lab := machine.Config{Spec: cpumodel.SmallIntel()}
	if got := MaxThreadsWithoutContention(lab); got != 3 {
		t.Errorf("lab max threads = %d, want 3 (paper: largest app 3 threads)", got)
	}
	prod := machine.Config{Spec: cpumodel.SmallIntel(), Hyperthreading: true}
	if got := MaxThreadsWithoutContention(prod); got != 6 {
		t.Errorf("prod max threads = %d, want 6", got)
	}
	dahu := machine.Config{Spec: cpumodel.Dahu()}
	if got := MaxThreadsWithoutContention(dahu); got != 16 {
		t.Errorf("DAHU lab max threads = %d, want 16 (paper: 16-thread apps)", got)
	}
	sizes := SizesFor(dahu)
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 8 || sizes[2] != 16 {
		t.Errorf("DAHU sizes = %v, want [4 8 16]", sizes)
	}
	if got := SizesFor(lab); len(got) != 3 || got[2] != 3 {
		t.Errorf("SMALL INTEL lab sizes = %v, want three sizes up to 3", got)
	}
}

func TestEvaluateCampaignSmallSample(t *testing.T) {
	t.Parallel()
	// A reduced campaign exercising the full pipeline end to end.
	ctx := labSmall()
	scenarios, err := StressPairs([]string{"fibonacci", "float64", "matrixprod"}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := pairRows(ctx, scenarios, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(scenarios) {
		t.Fatalf("evaluated %d of %d scenarios", len(evs), len(scenarios))
	}
	sum := Summarize("scaphandre", evs)
	if sum.MeanAE <= 0 || sum.MeanAE > 0.15 {
		t.Errorf("mean AE = %.4f, want small positive", sum.MeanAE)
	}
	if sum.MaxAE < sum.MeanAE {
		t.Error("max AE below mean AE")
	}
	if !strings.Contains(sum.WorstScenario, "fibonacci") {
		t.Errorf("worst scenario = %q, expected a fibonacci pair", sum.WorstScenario)
	}
}

func TestEvaluatePairPowerAPISkipsLearning(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "int64", 2),
		mustStressApp(t, "rand", 2),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluatePair(ctx, s, models.NewPowerAPI(models.DefaultPowerAPIConfig()), baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	// 30 s run, 10 s learning → at most 20 s of estimates; 10 s scored.
	maxTicks := int(ctx.StableWindow/machine.DefaultTick) + 2
	if ev.ScoredTicks == 0 || ev.ScoredTicks > maxTicks {
		t.Errorf("scored %d ticks, want ≈%d", ev.ScoredTicks, maxTicks-2)
	}
}

func TestProductionContextEvaluation(t *testing.T) {
	t.Parallel()
	// The protocol also runs in the production context (HT+turbo on); Eq 3
	// remains applicable (§III-C).
	ctx := prodSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 3),
		mustStressApp(t, "matrixprod", 3),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluatePair(ctx, s, models.NewScaphandre(), baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AE < 0.05 || ev.AE > 0.2 {
		t.Errorf("production AE = %.4f, want in (0.05, 0.2)", ev.AE)
	}
}

func TestObjectiveStrings(t *testing.T) {
	t.Parallel()
	if ObjectiveActive.String() == "" || ObjectiveResidualAware.String() == "" ||
		ObjectiveNominalResidual.String() == "" || Objective(42).String() == "" {
		t.Error("objective names empty")
	}
}

func TestScenarioLabel(t *testing.T) {
	t.Parallel()
	s := Scenario{Apps: []AppSpec{{ID: "a"}, {ID: "b"}}}
	if s.Label() != "a || b" {
		t.Errorf("Label = %q", s.Label())
	}
}

func TestStressCombos(t *testing.T) {
	t.Parallel()
	fns := []string{"fibonacci", "queens", "int64", "matrixprod"}
	combos, err := StressCombos(fns, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// C(4,3) = 4 scenarios, each with 3 distinct apps.
	if len(combos) != 4 {
		t.Fatalf("%d combos, want 4", len(combos))
	}
	seen := map[string]bool{}
	for _, s := range combos {
		if len(s.Apps) != 3 {
			t.Fatalf("scenario %q has %d apps", s.Label(), len(s.Apps))
		}
		if seen[s.Label()] {
			t.Fatalf("duplicate scenario %q", s.Label())
		}
		seen[s.Label()] = true
		ids := map[string]bool{}
		for _, a := range s.Apps {
			if ids[a.ID] {
				t.Fatalf("scenario %q repeats %s", s.Label(), a.ID)
			}
			ids[a.ID] = true
		}
	}
	if _, err := StressCombos(fns, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := StressCombos(fns, 1, 5); err == nil {
		t.Error("k>len accepted")
	}
	if _, err := StressCombos([]string{"nosuch", "fibonacci"}, 1, 2); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestEvaluateTripleScenario(t *testing.T) {
	t.Parallel()
	// The protocol handles n>2 scenarios end to end; only the ratio point
	// is pair-specific (left zero).
	ctx := labSmall()
	s := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 2),
		mustStressApp(t, "int64", 2),
		mustStressApp(t, "matrixprod", 2),
	}}
	baselines, err := Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluatePair(ctx, s, models.NewScaphandre(), baselines, ObjectiveActive)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Truth) != 3 || len(ev.EstShare) != 3 {
		t.Fatalf("share vectors = %d/%d entries, want 3/3", len(ev.Truth), len(ev.EstShare))
	}
	// Scaphandre splits equal CPU time three ways.
	for a, share := range ev.EstShare {
		if math.Abs(share-1.0/3) > 0.01 {
			t.Errorf("%s estimated share = %.3f, want ≈1/3", s.Apps[a].ID, share)
		}
	}
	if ev.AE <= 0 {
		t.Error("zero error for heterogeneous triple")
	}
}

func TestCampaignBitReproducible(t *testing.T) {
	t.Parallel()
	// The README claims bit-for-bit reproducibility: two runs of the same
	// campaign (same seed) must agree exactly, including the parallel
	// runner. The runs have no cache scope, so the second run recomputes
	// every baseline as well as every scenario.
	ctx := labSmall()
	ctx.Cache = nil
	scenarios, err := StressPairs([]string{"fibonacci", "jmp", "rand"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Evaluation {
		evs, err := pairRows(ctx, scenarios, models.NewPowerAPI(models.DefaultPowerAPIConfig()))
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].AE != b[i].AE {
			t.Fatalf("scenario %q: AE %v vs %v across identical runs", a[i].Scenario.Label(), a[i].AE, b[i].AE)
		}
		for app := range a[i].EstShare {
			if a[i].EstShare[app] != b[i].EstShare[app] {
				t.Fatalf("scenario %q: share of %s differs", a[i].Scenario.Label(), a[i].Scenario.Apps[app].ID)
			}
		}
	}
}
