package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/workload"
)

func TestPowerCurveFig1SmallIntel(t *testing.T) {
	t.Parallel()
	res, err := PowerCurve(LabConfig(cpumodel.SmallIntel(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 { // idle + 6 cores
		t.Fatalf("lab curve has %d points, want 7", len(res.Points))
	}
	// Fig 1 signature: idle→1-core gap dominates the per-core slope.
	gap := float64(res.ResidualGap())
	slope := float64(res.Points[2].MaxPower - res.Points[1].MaxPower)
	if gap < 3*slope {
		t.Errorf("gap %.1f not ≫ slope %.1f", gap, slope)
	}
	// The band widens with load: stress functions spread in cost.
	if res.BandWidthAtFull() < 10 {
		t.Errorf("band at full load = %v, want >10 W", res.BandWidthAtFull())
	}
	// Linearity beyond the first core (max curve).
	for i := 3; i < len(res.Points); i++ {
		inc := float64(res.Points[i].MaxPower - res.Points[i-1].MaxPower)
		if math.Abs(inc-slope) > 0.5 {
			t.Errorf("increment at %d cores = %.2f, want ≈%.2f (linear)", i, inc, slope)
		}
	}
}

func TestPowerCurveFig1Dahu(t *testing.T) {
	t.Parallel()
	res, err := PowerCurve(LabConfig(cpumodel.Dahu(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "On DAHU, the gap is considerably larger at 81 watts".
	if gap := float64(res.ResidualGap()); gap < 75 || gap > 90 {
		t.Errorf("DAHU gap = %.1f W, want ≈81", gap)
	}
	// Paper: ≈25 W of variation, more than 10 % of the maximum.
	band := float64(res.BandWidthAtFull())
	max := float64(res.Points[len(res.Points)-1].MaxPower)
	if band < 20 || band > 40 {
		t.Errorf("DAHU band = %.1f W, want ≈25-31", band)
	}
	if band/max < 0.10 {
		t.Errorf("band %.1f is %.1f%% of max %.1f, want >10%%", band, band/max*100, max)
	}
}

func TestPowerCurveFig3Concave(t *testing.T) {
	t.Parallel()
	// Fig 3: with HT/turbo the curve is concave ("logarithmic").
	for _, spec := range cpumodel.Specs() {
		res, err := PowerCurve(ProdConfig(spec, 1))
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Points
		if len(pts) != spec.Topology.LogicalCPUs()+1 {
			t.Fatalf("%s prod curve has %d points", spec.Name, len(pts))
		}
		early := float64(pts[2].MaxPower - pts[1].MaxPower)
		late := float64(pts[len(pts)-1].MaxPower - pts[len(pts)-2].MaxPower)
		if late >= early {
			t.Errorf("%s: late increment %.2f not below early %.2f (not concave)", spec.Name, late, early)
		}
		// Production peak exceeds the lab peak (turbo + SMT).
		lab, err := PowerCurve(LabConfig(spec, 1))
		if err != nil {
			t.Fatal(err)
		}
		if pts[len(pts)-1].MaxPower <= lab.Points[len(lab.Points)-1].MaxPower {
			t.Errorf("%s: production peak not above lab peak", spec.Name)
		}
	}
}

func TestCurveTableRendering(t *testing.T) {
	t.Parallel()
	res, err := PowerCurve(LabConfig(cpumodel.SmallIntel(), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Table().String()
	if !strings.Contains(s, "SMALL INTEL") || !strings.Contains(s, "Fig 1") {
		t.Errorf("table missing header: %q", s)
	}
}

func TestEq1UndershootFig2(t *testing.T) {
	t.Parallel()
	res, err := Eq1Undershoot(LabConfig(cpumodel.SmallIntel(), 1), "fibonacci", "matrixprod", 3)
	if err != nil {
		t.Fatal(err)
	}
	// The naive estimates recover exactly the active powers...
	if math.Abs(float64(res.Naive0)-3*4.4) > 0.01 {
		t.Errorf("naive P0 = %v, want 13.2", res.Naive0)
	}
	// ...so their sum under-covers the machine power by R (idle included).
	if math.Abs(float64(res.Uncovered-res.Residual)) > 0.01 {
		t.Errorf("uncovered %v != residual %v", res.Uncovered, res.Residual)
	}
	if res.Residual < 30 {
		t.Errorf("residual = %v, want ≈36", res.Residual)
	}
}

func TestRatioScatterHeadlineSmallIntel(t *testing.T) {
	t.Parallel()
	// §IV-A on SMALL INTEL: Scaphandre ≈3.15 % mean, ≈11.7 % max, worst
	// pairs involving FIBONACCI.
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	res, err := RatioScatter(ctx, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAE < 0.02 || res.MeanAE > 0.055 {
		t.Errorf("mean AE = %.4f, want ≈0.031", res.MeanAE)
	}
	if res.MaxAE < 0.10 || res.MaxAE > 0.14 {
		t.Errorf("max AE = %.4f, want ≈0.117", res.MaxAE)
	}
	if !strings.Contains(res.WorstPair, "fibonacci") {
		t.Errorf("worst pair = %q, want a fibonacci pair", res.WorstPair)
	}
	if len(res.SameSize) != 198 || len(res.DiffSize) != 432 {
		t.Errorf("scenario split = %d/%d, want 198/432", len(res.SameSize), len(res.DiffSize))
	}
}

func TestRatioScatterHeadlineDahu(t *testing.T) {
	t.Parallel()
	// §IV-A on DAHU: Scaphandre ≈2.7 % mean, 17.4 % max between QUEENS
	// and FLOAT64.
	ctx := LabContext(cpumodel.Dahu(), 1)
	res, err := RatioScatter(ctx, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAE < 0.02 || res.MaxAE < 0.15 || res.MaxAE > 0.20 {
		t.Errorf("DAHU scaphandre = %.4f/%.4f, want ≈0.027/0.174", res.MeanAE, res.MaxAE)
	}
	if !strings.Contains(res.WorstPair, "queens") || !strings.Contains(res.WorstPair, "float64") {
		t.Errorf("worst pair = %q, want queens vs float64", res.WorstPair)
	}
}

func TestLabEvaluationModelsOrdering(t *testing.T) {
	t.Parallel()
	// On SMALL INTEL (no pathology), PowerAPI ≈ Scaphandre (paper: 3.12 %
	// vs 3.15 %); the F2 reference and the oracle are far better.
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	results, err := LabEvaluationStreaming(ctx, models.NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	sc, ok1 := results["scaphandre"]
	pa, ok2 := results["powerapi"]
	f2, ok3 := results["f2"]
	or, ok4 := results["oracle"]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing models in %v", sortedKeys(results))
	}
	if math.Abs(sc.MeanAE-pa.MeanAE) > 0.01 {
		t.Errorf("scaphandre %.4f vs powerapi %.4f, want near-identical", sc.MeanAE, pa.MeanAE)
	}
	if f2.MeanAE > sc.MeanAE/3 {
		t.Errorf("F2 mean %.4f not ≪ scaphandre %.4f", f2.MeanAE, sc.MeanAE)
	}
	if or.MeanAE > 0.01 {
		t.Errorf("oracle mean = %.4f, want ≈0", or.MeanAE)
	}
}

// TestLabTableShareInvariants checks the paper's share invariants on
// every row of the seed-1 §IV-A table, both machines and every model: the
// Eq 3 objective shares of a pair sum to 1 (to 1e-12) with each in
// [0, 1], and a model's mean estimated shares lie in [0, 1] and cover at
// most the measured power (Σ ≤ 1 + 1e-9). Both vectors have one entry
// per application of the scenario.
func TestLabTableShareInvariants(t *testing.T) {
	t.Parallel()
	for _, spec := range []cpumodel.Spec{cpumodel.SmallIntel(), cpumodel.Dahu()} {
		res, err := labRows(LabContext(spec, 1), models.NewKepler(), models.NewOracle())
		if err != nil {
			t.Fatal(err)
		}
		for m, f := range res.Factories {
			for _, ev := range res.Pairs(m, 0) {
				label := fmt.Sprintf("%s: %s on %q", spec.Name, f.Name, ev.Scenario.Label())
				if len(ev.Truth) != len(ev.Scenario.Apps) || len(ev.EstShare) != len(ev.Scenario.Apps) {
					t.Fatalf("%s: %d applications, Truth/EstShare %d/%d", label, len(ev.Scenario.Apps), len(ev.Truth), len(ev.EstShare))
				}
				var truth, est float64
				for a := range ev.Truth {
					if ev.Truth[a] < 0 || ev.Truth[a] > 1 {
						t.Errorf("%s: Truth[%d] = %v outside [0, 1]", label, a, ev.Truth[a])
					}
					if ev.EstShare[a] < 0 || ev.EstShare[a] > 1 {
						t.Errorf("%s: EstShare[%d] = %v outside [0, 1]", label, a, ev.EstShare[a])
					}
					truth += ev.Truth[a]
					est += ev.EstShare[a]
				}
				if math.Abs(truth-1) > 1e-12 {
					t.Errorf("%s: Σ Truth = %v, want 1", label, truth)
				}
				if est > 1+1e-9 {
					t.Errorf("%s: Σ EstShare = %v, want ≤ 1", label, est)
				}
			}
		}
	}
}

func TestPowerAPIDahuPathologyNumbers(t *testing.T) {
	t.Parallel()
	// §IV-A: PowerAPI on DAHU averages 16.23 % with a 49.1 % max.
	ctx := LabContext(cpumodel.Dahu(), 1)
	res, err := RatioScatter(ctx, models.NewPowerAPI(models.DefaultPowerAPIConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAE < 0.10 || res.MeanAE > 0.25 {
		t.Errorf("DAHU powerapi mean = %.4f, want ≈0.16", res.MeanAE)
	}
	if res.MaxAE < 0.40 || res.MaxAE > 0.70 {
		t.Errorf("DAHU powerapi max = %.4f, want ≈0.49", res.MaxAE)
	}
}

func TestInstabilityFig8(t *testing.T) {
	t.Parallel()
	res, err := Instability(LabConfig(cpumodel.Dahu(), 1), "matrixprod", "float64", 8, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 6 {
		t.Fatalf("%d runs, want 6", len(res.Runs))
	}
	if !res.FlipFlopped() {
		t.Error("identical runs never flip-flopped (Fig 8)")
	}
	// Degenerate runs attribute ≈90/10.
	lopsided := 0
	for _, r := range res.Runs {
		m := math.Max(r.Share["matrixprod"], r.Share["float64"])
		if m > 0.85 {
			lopsided++
		}
	}
	if lopsided == 0 {
		t.Error("no ≈90/10 attribution observed")
	}
	if !strings.Contains(res.Table().String(), "Fig 8") {
		t.Error("table title missing")
	}
}

func TestInstabilityStableOnSmallIntel(t *testing.T) {
	t.Parallel()
	// Below the many-core threshold the attribution never flips.
	res, err := Instability(LabConfig(cpumodel.SmallIntel(), 1), "matrixprod", "float64", 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlipFlopped() {
		t.Error("SMALL INTEL runs flip-flopped")
	}
}

func TestResidualCappingSection4B(t *testing.T) {
	t.Parallel()
	// Reduced function set for test speed; the full set runs in the bench.
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	fns := []string{"fibonacci", "int64", "matrixprod"}
	res, err := ResidualCapping(ctx, models.NewScaphandre(), fns, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The models cannot see residual dynamics: errors well above the
	// uniform-residual campaign's ≈3 %.
	if res.ResidualAware.MeanAE < 0.05 {
		t.Errorf("9a mean = %.4f, want ≫ 0.03", res.ResidualAware.MeanAE)
	}
	if res.NominalR0.MeanAE < 0.05 {
		t.Errorf("9b mean = %.4f, want ≫ 0.03", res.NominalR0.MeanAE)
	}
	// Same-size pairs dilute the error (§IV-B). On this reduced function
	// set the effect is small, so allow a hair of slack; the full-set
	// bench checks the real magnitudes.
	if res.NominalR0.MeanAEDiffSizeOnly < res.NominalR0.MeanAE-0.01 {
		t.Errorf("diff-size-only mean %.4f well below overall %.4f", res.NominalR0.MeanAEDiffSizeOnly, res.NominalR0.MeanAE)
	}
	// R0 = idle + nominal-frequency residual = 8 + 15.
	if math.Abs(float64(res.R0)-23) > 0.01 {
		t.Errorf("R0 = %v, want 23", res.R0)
	}
	if !strings.Contains(res.Table().String(), "Fig 9a") {
		t.Error("table missing Fig 9a row")
	}
}

func TestCappingScenariosComposition(t *testing.T) {
	t.Parallel()
	scenarios, err := CappingScenarios([]string{"int64", "rand"}, []int{1, 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 2 fns × 2 sizes × {capped, uncapped} = 8 apps → C(8,2) = 28 pairs,
	// all within the 6-core budget.
	if len(scenarios) != 28 {
		t.Fatalf("%d scenarios, want 28", len(scenarios))
	}
	mixed, cappedOnly, uncappedOnly := 0, 0, 0
	for _, s := range scenarios {
		c0 := strings.HasSuffix(s.Apps[0].ID, "-capped")
		c1 := strings.HasSuffix(s.Apps[1].ID, "-capped")
		switch {
		case c0 && c1:
			cappedOnly++
		case !c0 && !c1:
			uncappedOnly++
		default:
			mixed++
		}
		// Pins must not overlap.
		used := map[int]bool{}
		for _, a := range s.Apps {
			for _, p := range a.Pinned {
				if used[p] {
					t.Fatalf("scenario %q: overlapping pin %d", s.Label(), p)
				}
				used[p] = true
			}
		}
	}
	if cappedOnly == 0 || uncappedOnly == 0 || mixed == 0 {
		t.Errorf("composition %d/%d/%d, want all three pair kinds", cappedOnly, uncappedOnly, mixed)
	}
}

func TestPhoronixReferenceTableV(t *testing.T) {
	t.Parallel()
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	refs, err := PhoronixReference(cfg, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		kJ  float64
		sec float64
	}{
		"cloverleaf":    {36.46, 516},
		"dacapo":        {13.51, 364},
		"build2":        {26.75, 384},
		"compress-7zip": {23.53, 396},
	}
	if len(refs) != len(want) {
		t.Fatalf("%d references, want %d", len(refs), len(want))
	}
	for _, r := range refs {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected app %s", r.Name)
			continue
		}
		// Energies within 5 % of Table V, durations within 2 s.
		if math.Abs(r.Energy.Kilojoules()-w.kJ)/w.kJ > 0.05 {
			t.Errorf("%s energy = %.2f kJ, want ≈%.2f", r.Name, r.Energy.Kilojoules(), w.kJ)
		}
		if math.Abs(r.Duration.Seconds()-w.sec) > 2 {
			t.Errorf("%s duration = %.0f s, want %.0f", r.Name, r.Duration.Seconds(), w.sec)
		}
		// Table V variability is sub-percent.
		if r.EnergyVarPct > 0.01 || r.DurationVarPct > 0.01 {
			t.Errorf("%s variability %.3f/%.3f, want <1%%", r.Name, r.EnergyVarPct, r.DurationVarPct)
		}
		if r.Trace == nil || r.Trace.Len() == 0 {
			t.Errorf("%s has no Fig 10 trace", r.Name)
		}
	}
	if !strings.Contains(TableV(refs).String(), "Table V") {
		t.Error("TableV title missing")
	}
}

func TestPhoronixReferenceErrors(t *testing.T) {
	t.Parallel()
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	if _, err := PhoronixReference(cfg, 6, 0, 1); err == nil {
		t.Error("zero repeats accepted")
	}
}

func TestContextIllustrationFig11(t *testing.T) {
	t.Parallel()
	res, err := ContextIllustration(LabConfig(cpumodel.SmallIntel(), 1), models.NewScaphandre(), "int64", 2, 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	// P0 runs through all three context windows; despite constant
	// behaviour its attribution drifts heavily.
	if drift := res.AttributionDriftPct("P0"); drift < 20 {
		t.Errorf("P0 drift = %.1f%%, want >20%%", drift)
	}
	// P1 and P2 each live in a single context window: little drift.
	for _, id := range []string{"P1", "P2"} {
		if drift := res.AttributionDriftPct(id); drift > 10 {
			t.Errorf("%s drift = %.1f%%, want <10%%", id, drift)
		}
	}
	if len(res.Windows) != 2 {
		t.Errorf("windows = %v", res.Windows)
	}
	if !strings.Contains(res.Table().String(), "Fig 11") {
		t.Error("table title missing")
	}
}

func TestEnergyDivisionSectionV(t *testing.T) {
	t.Parallel()
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	res, err := EnergyDivision(cfg, models.NewScaphandre(), "build2", "dacapo", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// §V-A shape: the colocated total is below the solo sum, and the
	// bursty DACAPO loses proportionally much more than BUILD2.
	if res.TotalDropPct() <= 5 {
		t.Errorf("total drop = %.1f%%, want >5%%", res.TotalDropPct())
	}
	if res.Drop1Pct() <= res.Drop0Pct() {
		t.Errorf("dacapo drop %.1f%% not above build2 drop %.1f%%", res.Drop1Pct(), res.Drop0Pct())
	}
	if res.Drop0Pct() <= 0 || res.Drop1Pct() <= 0 {
		t.Errorf("drops %.1f%%/%.1f%%, want both positive", res.Drop0Pct(), res.Drop1Pct())
	}
	// Attribution curves exist for the figures.
	if res.Est0.Len() == 0 || res.Est1.Len() == 0 {
		t.Error("missing attribution traces")
	}
	if !strings.Contains(res.Table().String(), "build2") {
		t.Error("table missing app name")
	}
}

func TestColocationSweepSectionV(t *testing.T) {
	t.Parallel()
	// CLOVERLEAF on DAHU with neighbours: attributed energy collapses.
	sweep, err := ColocationSweep(ProdConfig(cpumodel.Dahu(), 1), models.NewScaphandre(), "cloverleaf", 6, []int{0, 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo, crowded := sweep[0], sweep[9]
	if crowded >= solo/2 {
		t.Errorf("9-neighbour energy %.1f kJ not ≪ solo %.1f kJ (paper: −56%%)", crowded.Kilojoules(), solo.Kilojoules())
	}
}

func TestEnergyDivisionErrors(t *testing.T) {
	t.Parallel()
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	if _, err := EnergyDivision(cfg, models.NewScaphandre(), "nosuch", "dacapo", 6, 1); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := ColocationSweep(cfg, models.NewScaphandre(), "nosuch", 6, []int{0}, 1); err == nil {
		t.Error("unknown app accepted in sweep")
	}
}

func TestErrorTableRendering(t *testing.T) {
	t.Parallel()
	results := map[string]ScatterResult{
		"scaphandre": {Model: "scaphandre", Machine: "SMALL INTEL", MeanAE: 0.0315, MaxAE: 0.117, WorstPair: "fibonacci-3 || matrixprod-3"},
	}
	s := ErrorTable("SMALL INTEL", results).String()
	if !strings.Contains(s, "3.15 %") || !strings.Contains(s, "11.70 %") {
		t.Errorf("error table rendering: %q", s)
	}
}

func TestScatterDiagonality(t *testing.T) {
	t.Parallel()
	pt := func(x, y float64) division.RatioPoint { return division.RatioPoint{X: x, Y: y} }
	res := ScatterResult{}
	res.SameSize = append(res.SameSize, pt(10, 10), pt(-20, -20))
	if d := res.Diagonality(); d != 0 {
		t.Errorf("diagonality of perfect points = %v", d)
	}
	res.DiffSize = append(res.DiffSize, pt(10, 0))
	if d := res.Diagonality(); math.Abs(d-10.0/3) > 1e-9 {
		t.Errorf("diagonality = %v, want 10/3", d)
	}
}

func TestPaperModelsList(t *testing.T) {
	t.Parallel()
	fs := PaperModels()
	if len(fs) != 2 || fs[0].Name != "scaphandre" || fs[1].Name != "powerapi" {
		t.Errorf("PaperModels = %v", fs)
	}
}

func TestStressNamesComplete(t *testing.T) {
	t.Parallel()
	if len(stressNames()) != len(workload.StressNames()) {
		t.Error("stressNames out of sync")
	}
}

func TestResidualAwareModelFixesC3(t *testing.T) {
	t.Parallel()
	// The residual-aware model (calibrated R(f) + duty-based causation)
	// must beat CPU-time division on the §IV-B campaign while matching it
	// on the uniform-duty campaign.
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	fns := []string{"fibonacci", "int64", "matrixprod"}
	ra := models.NewResidualAwareFromSpec(cpumodel.SmallIntel())

	raRes, err := ResidualCapping(ctx, ra, fns, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	scRes, err := ResidualCapping(ctx, models.NewScaphandre(), fns, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if raRes.ResidualAware.MeanAE >= scRes.ResidualAware.MeanAE/2 {
		t.Errorf("residual-aware 9a mean %.4f not well below scaphandre %.4f",
			raRes.ResidualAware.MeanAE, scRes.ResidualAware.MeanAE)
	}
	if raRes.NominalR0.MeanAE >= scRes.NominalR0.MeanAE {
		t.Errorf("residual-aware 9b mean %.4f not below scaphandre %.4f",
			raRes.NominalR0.MeanAE, scRes.NominalR0.MeanAE)
	}

	// Uniform duty: identical to Scaphandre.
	raC, err := RatioScatter(ctx, ra)
	if err != nil {
		t.Fatal(err)
	}
	scC, err := RatioScatter(ctx, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(raC.MeanAE-scC.MeanAE) > 1e-9 {
		t.Errorf("uncapped campaign differs: %.6f vs %.6f", raC.MeanAE, scC.MeanAE)
	}
}
