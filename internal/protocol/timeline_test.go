package protocol

import (
	"context"
	"fmt"
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// timelineApp is an application with a lifetime in a timeline scenario.
type timelineApp struct {
	App AppSpec
	// Start is the arrival time; Stop (0 = scenario end) the departure.
	Start, Stop time.Duration
}

// evaluateTimeline scores f over the timeline as a one-scenario
// TimelineCampaign against baselines.
func evaluateTimeline(ctx Context, apps []timelineApp, f models.Factory, baselines map[string]division.Baseline, maxDur time.Duration) (TrafficEvaluation, error) {
	s := Scenario{Apps: make([]AppSpec, len(apps))}
	for i, ta := range apps {
		s.Apps[i] = ta.App
		s.Apps[i].StartAt, s.Apps[i].StopAt = ta.Start, ta.Stop
	}
	res, err := Evaluate(context.Background(), ctx, Campaign{
		Kind: TimelineCampaign, Scenarios: []Scenario{s}, Factories: FixedFactories(f),
		Baselines: baselines, Window: maxDur,
	})
	if err != nil {
		return TrafficEvaluation{}, err
	}
	return res.Traffic(0)[0], nil
}

func fig11Timeline(t *testing.T) []timelineApp {
	t.Helper()
	p0 := mustStressApp(t, "int64", 2)
	p0.ID = "P0"
	p1 := mustStressApp(t, "int64", 2)
	p1.ID = "P1"
	p2 := mustStressApp(t, "int64", 2)
	p2.ID = "P2"
	return []timelineApp{
		{App: p0},
		{App: p1, Start: 20 * time.Second, Stop: 40 * time.Second},
		{App: p2, Start: 40 * time.Second},
	}
}

func timelineBaselines(t *testing.T, ctx Context, apps []timelineApp) map[string]division.Baseline {
	t.Helper()
	specs := make([]AppSpec, len(apps))
	for i, ta := range apps {
		specs[i] = ta.App
	}
	b, err := Measure(context.Background(), ctx, specs)
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
	res, err := evaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, time.Minute)
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
	res, err := evaluateTimeline(ctx, apps, models.NewPowerAPI(models.DefaultPowerAPIConfig()), baselines, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage > 0.6 || res.Coverage < 0.3 {
		t.Errorf("powerapi coverage = %.3f, want ≈0.5 (3 × 10s learning over 60s)", res.Coverage)
	}
	sc, err := evaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, time.Minute)
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
	apps := []timelineApp{
		{App: fib},
		{App: mat, Start: 10 * time.Second},
		{App: jmp, Start: 20 * time.Second, Stop: 30 * time.Second},
	}
	baselines := timelineBaselines(t, ctx, apps)
	res, err := evaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, 40*time.Second)
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
	if _, err := evaluateTimeline(ctx, nil, models.NewScaphandre(), nil, time.Minute); err == nil {
		t.Error("empty timeline accepted")
	}
	apps := fig11Timeline(t)
	if _, err := evaluateTimeline(ctx, apps, models.NewScaphandre(), map[string]division.Baseline{}, time.Minute); err == nil {
		t.Error("missing baselines accepted")
	}
}

// TestEvaluateTimelineSharedBaseline scores two instances of one
// application type (BaseID "web") against the map Measure returns,
// which holds one entry under the type. The result must equal the same
// timeline whose instances carry no BaseID, with the type's baseline
// listed under each instance ID: the BaseID only names the baseline.
func TestEvaluateTimelineSharedBaseline(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	web := mustStressApp(t, "int64", 2)
	web.ID = "web"
	shared := make([]timelineApp, 2)
	byID := make([]timelineApp, 2)
	for i, start := range []time.Duration{0, 15 * time.Second} {
		inst := web
		inst.ID = fmt.Sprintf("web-%d", i+1)
		byID[i] = timelineApp{App: inst, Start: start}
		inst.BaseID = web.ID
		shared[i] = timelineApp{App: inst, Start: start}
	}
	baselines, err := Measure(context.Background(), ctx, []AppSpec{shared[0].App, shared[1].App})
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) != 1 {
		t.Fatalf("Measure keyed %d entries, want the one type", len(baselines))
	}
	got, err := evaluateTimeline(ctx, shared, models.NewScaphandre(), baselines, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	perInstance := map[string]division.Baseline{"web-1": baselines["web"], "web-2": baselines["web"]}
	want, err := evaluateTimeline(ctx, byID, models.NewScaphandre(), perInstance, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScoredTicks == 0 {
		t.Errorf("shared-type timeline scored nothing: %+v", got)
	}
	compareTrafficEvaluations(t, "scaphandre", want, got)
}
