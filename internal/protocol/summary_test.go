package protocol

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
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

// TestBaselineSummaryHorizonMaxInt64 pins phase 1 at the top of the int64
// time line: an application whose script ends at 2.0 s has the same
// baseline whether the solo run's horizon is an hour or math.MaxInt64. A
// digest reserved by the horizon's tick count cannot be allocated.
func TestBaselineSummaryHorizonMaxInt64(t *testing.T) {
	app := AppSpec{ID: "scripted-2", Threads: 2, Workload: workload.Workload{
		Name: "scripted",
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6},
		Script: []workload.Phase{
			{Duration: 250 * time.Millisecond, Threads: 2, Intensity: 1, Util: 1},
			{Duration: 1050 * time.Millisecond, Threads: 1, Intensity: 0.5, Util: 0.7},
			{Duration: 700 * time.Millisecond, Threads: 2, Intensity: 0.8, Util: 1},
		},
	}}
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.StableWindow = time.Second
	ctx.RunFor = time.Hour
	want, err := MeasureBaselineSummary(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	ctx.RunFor = math.MaxInt64
	got, err := MeasureBaselineSummary(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID ||
		math.Float64bits(float64(got.Total)) != math.Float64bits(float64(want.Total)) ||
		math.Float64bits(float64(got.Residual)) != math.Float64bits(float64(want.Residual)) ||
		math.Float64bits(got.Cores) != math.Float64bits(want.Cores) {
		t.Errorf("baseline at MaxInt64 %+v, at an hour %+v", got, want)
	}
}
