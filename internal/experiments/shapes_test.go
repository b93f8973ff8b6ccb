package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
)

// Shape tests for the experiment drivers: structural invariants that must
// hold whatever the calibrated wattages are — monotone curve segments,
// well-formed scatter rows, the residual direction under capping, share
// conservation across instability runs, energy bookkeeping. They complement
// the paper-number tests in experiments_test.go, which pin magnitudes.

// shortCtx shrinks the protocol context so shape tests stay fast; the
// invariants under test do not depend on run length.
func shortCtx(spec cpumodel.Spec) protocol.Context {
	ctx := LabContext(spec, 1)
	ctx.RunFor = 6 * time.Second
	ctx.StableWindow = 2 * time.Second
	return ctx
}

// TestCurveShapeMonotone checks the load-curve invariants on both machines
// and both contexts: the x axis strictly increases from idle to 100 %, the
// band is well-ordered (min ≤ max) everywhere, the max curve never goes
// down when load is added, and the idle point is a single value.
func TestCurveShapeMonotone(t *testing.T) {
	t.Parallel()
	for _, spec := range cpumodel.Specs() {
		for _, prod := range []bool{false, true} {
			cfg := LabConfig(spec, 1)
			if prod {
				cfg = ProdConfig(spec, 1)
			}
			res, err := PowerCurve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Points
			if len(pts) < 3 {
				t.Fatalf("%s prod=%v: only %d curve points", spec.Name, prod, len(pts))
			}
			if pts[0].Threads != 0 || pts[0].MinPower != pts[0].MaxPower {
				t.Errorf("%s prod=%v: idle point %+v malformed", spec.Name, prod, pts[0])
			}
			if last := pts[len(pts)-1].LoadPct; math.Abs(last-100) > 1e-9 {
				t.Errorf("%s prod=%v: curve ends at %.1f%% load, want 100%%", spec.Name, prod, last)
			}
			for i, p := range pts {
				if p.MinPower > p.MaxPower {
					t.Errorf("%s prod=%v: point %d has min %v > max %v", spec.Name, prod, i, p.MinPower, p.MaxPower)
				}
				if i == 0 {
					continue
				}
				if p.LoadPct <= pts[i-1].LoadPct || p.Threads != pts[i-1].Threads+1 {
					t.Errorf("%s prod=%v: x axis not strictly increasing at point %d", spec.Name, prod, i)
				}
				if p.MaxPower < pts[i-1].MaxPower {
					t.Errorf("%s prod=%v: max curve decreases at %d threads (%v → %v)",
						spec.Name, prod, p.Threads, pts[i-1].MaxPower, p.MaxPower)
				}
			}
			if res.ResidualGap() <= 0 {
				t.Errorf("%s prod=%v: residual gap %v, want > 0", spec.Name, prod, res.ResidualGap())
			}
		}
	}
}

// TestScatterShapeRows builds a reduced campaign and checks every scatter
// row is well-formed: both panels populated, finite coordinates, labelled
// points, and error statistics that are ordered and attained.
func TestScatterShapeRows(t *testing.T) {
	t.Parallel()
	ctx := shortCtx(cpumodel.SmallIntel())
	scenarios, err := protocol.StressPairs([]string{"fibonacci", "matrixprod", "int64"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := evaluateModel(ctx, scenarios, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	res := scatterFromEvaluations("scaphandre", ctx.Machine.Spec.Name, evs)
	if len(res.SameSize) == 0 || len(res.DiffSize) == 0 {
		t.Fatalf("scatter panels %d/%d, want both non-empty", len(res.SameSize), len(res.DiffSize))
	}
	for _, p := range append(append([]division.RatioPoint{}, res.SameSize...), res.DiffSize...) {
		if p.Label == "" {
			t.Error("unlabelled scatter point")
		}
		for _, v := range []float64{p.X, p.Y} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("point %q has non-finite coordinate %v", p.Label, v)
			}
		}
	}
	if res.MeanAE <= 0 || res.MaxAE < res.MeanAE {
		t.Errorf("error stats mean=%v max=%v, want 0 < mean ≤ max", res.MeanAE, res.MaxAE)
	}
	if res.WorstPair == "" {
		t.Error("MaxAE not attributed to a scenario")
	}
}

// TestCappingResidualDirection pins the §IV-B mechanism itself rather than
// its campaign-level error numbers: a 50 %-capped application's isolated
// run shows strictly less residual and less total power than the same
// application uncapped — the invisible difference that breaks the models.
func TestCappingResidualDirection(t *testing.T) {
	t.Parallel()
	ctx := shortCtx(cpumodel.SmallIntel())
	uncapped, err := cappingApp("matrixprod", 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := cappingApp("matrixprod", 2, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{uncapped, capped})
	if err != nil {
		t.Fatal(err)
	}
	bu, bc := baselines[uncapped.ID], baselines[capped.ID]
	if bc.Residual >= bu.Residual {
		t.Errorf("capped residual %v not below uncapped %v", bc.Residual, bu.Residual)
	}
	if bc.Total >= bu.Total {
		t.Errorf("capped total %v not below uncapped %v", bc.Total, bu.Total)
	}
	if bc.Cores >= bu.Cores {
		t.Errorf("capped cores %.2f not below uncapped %.2f", bc.Cores, bu.Cores)
	}

	res, err := ResidualCapping(ctx, models.NewScaphandre(), []string{"fibonacci", "matrixprod"}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.R0 <= 0 {
		t.Errorf("R0 = %v, want > 0", res.R0)
	}
	for name, st := range map[string]CappingStats{"9a": res.ResidualAware, "9b": res.NominalR0} {
		if len(st.Points) == 0 {
			t.Errorf("objective %s: no scatter points", name)
		}
		if st.MeanAE < 0 || st.MaxAE < st.MeanAE {
			t.Errorf("objective %s: mean=%v max=%v out of order", name, st.MeanAE, st.MaxAE)
		}
	}
}

// TestInstabilityShareConservation: whatever PowerAPI's calibration does,
// every instability run must be a probability split — two shares in [0,1]
// summing to 1 — and the result must hold exactly `repeats` runs.
func TestInstabilityShareConservation(t *testing.T) {
	t.Parallel()
	const repeats = 3
	res, err := Instability(LabConfig(cpumodel.SmallIntel(), 1), "matrixprod", "float64", 2, repeats, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != repeats {
		t.Fatalf("%d runs, want %d", len(res.Runs), repeats)
	}
	for i, run := range res.Runs {
		s0, s1 := run.Share[res.Fn0], run.Share[res.Fn1]
		if s0 < 0 || s0 > 1 || s1 < 0 || s1 > 1 {
			t.Errorf("run %d: shares %v/%v outside [0,1]", i, s0, s1)
		}
		if math.Abs(s0+s1-1) > 1e-6 {
			t.Errorf("run %d: shares sum to %v, want 1", i, s0+s1)
		}
	}
}

// TestEnergyDivisionBookkeeping: the attributed energies must account for
// (nearly all of) the colocated machine energy — the division can lose a
// little to model warm-up but can never create energy — and the attribution
// traces must span the run.
func TestEnergyDivisionBookkeeping(t *testing.T) {
	t.Parallel()
	res, err := EnergyDivision(ProdConfig(cpumodel.SmallIntel(), 1), models.NewScaphandre(), "build2", "dacapo", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoloEnergy0 <= 0 || res.SoloEnergy1 <= 0 || res.PairTotal <= 0 {
		t.Fatalf("non-positive energies: %+v", res)
	}
	attributed := res.PairEnergy0 + res.PairEnergy1
	if attributed > res.PairTotal*1.000001 {
		t.Errorf("attributed %v J exceeds machine total %v J", attributed, res.PairTotal)
	}
	if float64(attributed) < 0.9*float64(res.PairTotal) {
		t.Errorf("attributed %v J accounts for <90%% of machine total %v J", attributed, res.PairTotal)
	}
	if res.Est0.Len() == 0 || res.Est1.Len() == 0 || res.PairMachine.Len() == 0 {
		t.Fatal("missing attribution or machine traces")
	}
	if res.Est0.End() <= res.Est0.Start() {
		t.Errorf("attribution trace spans nothing: %v..%v", res.Est0.Start(), res.Est0.End())
	}
}
