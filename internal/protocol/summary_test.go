package protocol

import (
	"math"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
)

// TestBaselineSummaryMatchesFull pins the digest path of phase 1: the
// Baseline computed from a RunSummary must be bit-identical to the one
// MeasureBaseline extracts from the full run, on both machines (noise on,
// so the stable-window selection is non-trivial).
func TestBaselineSummaryMatchesFull(t *testing.T) {
	for _, sp := range []struct {
		spec cpumodel.Spec
		ht   bool
	}{
		{cpumodel.SmallIntel(), false},
		{cpumodel.Dahu(), true},
	} {
		ctx := goldenContext(sp.spec, sp.ht)
		for _, fn := range []string{"fibonacci", "matrixprod", "int64"} {
			app, err := StressApp(fn, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := MeasureBaseline(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MeasureBaselineSummary(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != want.ID ||
				math.Float64bits(float64(got.Total)) != math.Float64bits(float64(want.Total)) ||
				math.Float64bits(float64(got.Residual)) != math.Float64bits(float64(want.Residual)) ||
				math.Float64bits(got.Cores) != math.Float64bits(want.Cores) {
				t.Errorf("%s/%s: summary baseline %+v != full %+v", sp.spec.Name, app.ID, got, want)
			}
		}
	}
}

// TestRunSummaryShape pins the digest's layout against the run it stands
// in for: matching tick counts and per-tick values stored exactly as the
// run accessors would compute them.
func TestRunSummaryShape(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("rand", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctx.Machine
	cfg.Seed = deriveSeed(ctx.Seed, "solo", app.ID)
	_, run, err := MeasureBaseline(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := newRunSummary(cfg, []machine.Proc{app.proc()}, ctx.RunFor)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ticks != len(run.Ticks) || sum.Duration != run.Duration || sum.Tick != run.Tick() {
		t.Fatalf("shape: %d ticks/%v != %d/%v", sum.Ticks, sum.Duration, len(run.Ticks), run.Duration)
	}
	if len(sum.Power) != sum.Ticks || len(sum.CPUTime) != sum.Ticks*sum.Roster.Len() {
		t.Fatalf("slab lengths %d/%d off for %d ticks", len(sum.Power), len(sum.CPUTime), sum.Ticks)
	}
	slot, _ := sum.Roster.Slot(app.ID)
	for i, rec := range run.Ticks {
		if math.Float64bits(sum.Power[i]) != math.Float64bits(float64(rec.Power)) ||
			math.Float64bits(sum.TruePower[i]) != math.Float64bits(float64(rec.TruePower)) ||
			math.Float64bits(sum.ResidIdle[i]) != math.Float64bits(float64(rec.Idle+rec.Residual)) {
			t.Fatalf("tick %d traces differ", i)
		}
		if sum.CPUTime[i*sum.Roster.Len()+slot] != rec.Procs[slot].CPUTime {
			t.Fatalf("tick %d CPU time differs", i)
		}
	}
}
