package protocol

import (
	"fmt"
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

func fig11Timeline(t *testing.T) []TimelineApp {
	t.Helper()
	p0 := mustStressApp(t, "int64", 2)
	p0.ID = "P0"
	p1 := mustStressApp(t, "int64", 2)
	p1.ID = "P1"
	p2 := mustStressApp(t, "int64", 2)
	p2.ID = "P2"
	return []TimelineApp{
		{App: p0},
		{App: p1, Start: 20 * time.Second, Stop: 40 * time.Second},
		{App: p2, Start: 40 * time.Second},
	}
}

func timelineBaselines(t *testing.T, ctx Context, apps []TimelineApp) map[string]division.Baseline {
	t.Helper()
	specs := make([]AppSpec, len(apps))
	for i, ta := range apps {
		specs[i] = ta.App
	}
	b, err := MeasureBaselines(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvaluateTimelineScaphandreFullCoverage(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	apps := fig11Timeline(t)
	baselines := timelineBaselines(t, ctx, apps)
	res, err := EvaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.999 {
		t.Errorf("scaphandre coverage = %.3f, want 1", res.Coverage)
	}
	// Identical workloads: equal splits match the objective (low AE).
	if res.AE > 0.02 {
		t.Errorf("identical-workload timeline AE = %.4f, want ≈0", res.AE)
	}
	if res.BusyTicks == 0 || res.ScoredTicks != res.BusyTicks {
		t.Errorf("ticks = %d/%d", res.ScoredTicks, res.BusyTicks)
	}
}

func TestEvaluateTimelinePowerAPICoverageLoss(t *testing.T) {
	t.Parallel()
	// PowerAPI relearns at every arrival/departure: with context changes
	// at t=20s and t=40s of a 60s run and a 10s learning window, roughly
	// half the busy ticks produce no estimate.
	ctx := labSmall()
	apps := fig11Timeline(t)
	baselines := timelineBaselines(t, ctx, apps)
	res, err := EvaluateTimeline(ctx, apps, models.NewPowerAPI(models.DefaultPowerAPIConfig()), baselines, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage > 0.6 || res.Coverage < 0.3 {
		t.Errorf("powerapi coverage = %.3f, want ≈0.5 (3 × 10s learning over 60s)", res.Coverage)
	}
	sc, err := EvaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage >= sc.Coverage {
		t.Error("powerapi coverage not below scaphandre's")
	}
}

func TestEvaluateTimelineHeterogeneousError(t *testing.T) {
	t.Parallel()
	// Different workloads arriving and leaving: CPU-time division keeps
	// misattributing, now under churn.
	ctx := labSmall()
	fib := mustStressApp(t, "fibonacci", 2)
	mat := mustStressApp(t, "matrixprod", 2)
	jmp := mustStressApp(t, "jmp", 2)
	apps := []TimelineApp{
		{App: fib},
		{App: mat, Start: 10 * time.Second},
		{App: jmp, Start: 20 * time.Second, Stop: 30 * time.Second},
	}
	baselines := timelineBaselines(t, ctx, apps)
	res, err := EvaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.AE < 0.03 {
		t.Errorf("heterogeneous timeline AE = %.4f, want ≳0.05", res.AE)
	}
}

func TestEvaluateTimelineErrors(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	if _, err := EvaluateTimeline(ctx, nil, models.NewScaphandre(), nil, time.Minute); err == nil {
		t.Error("empty timeline accepted")
	}
	apps := fig11Timeline(t)
	if _, err := EvaluateTimeline(ctx, apps, models.NewScaphandre(), map[string]division.Baseline{}, time.Minute); err == nil {
		t.Error("missing baselines accepted")
	}
}

// TestEvaluateTimelineSharedBaseline scores two instances of one
// application type (BaseID "web") against the map MeasureBaselines returns,
// which holds one entry under the type. The result must equal the same
// timeline whose instances carry no BaseID, with the type's baseline
// listed under each instance ID: the BaseID only names the baseline.
func TestEvaluateTimelineSharedBaseline(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	web := mustStressApp(t, "int64", 2)
	web.ID = "web"
	shared := make([]TimelineApp, 2)
	byID := make([]TimelineApp, 2)
	for i, start := range []time.Duration{0, 15 * time.Second} {
		inst := web
		inst.ID = fmt.Sprintf("web-%d", i+1)
		byID[i] = TimelineApp{App: inst, Start: start}
		inst.BaseID = web.ID
		shared[i] = TimelineApp{App: inst, Start: start}
	}
	baselines, err := MeasureBaselines(ctx, []AppSpec{shared[0].App, shared[1].App})
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) != 1 {
		t.Fatalf("MeasureBaselines keyed %d entries, want the one type", len(baselines))
	}
	got, err := EvaluateTimeline(ctx, shared, models.NewScaphandre(), baselines, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	perInstance := map[string]division.Baseline{"web-1": baselines["web"], "web-2": baselines["web"]}
	want, err := EvaluateTimeline(ctx, byID, models.NewScaphandre(), perInstance, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.ScoredTicks == 0 {
		t.Errorf("shared-type timeline %+v, per-instance %+v", got, want)
	}
}
