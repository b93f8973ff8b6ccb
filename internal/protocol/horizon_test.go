package protocol

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// scriptedApp is an application whose script ends at 2.0 s, so its runs
// end there whatever the horizon.
func scriptedApp(id string, intensity float64) AppSpec {
	return AppSpec{ID: id, Threads: 2, Workload: workload.Workload{
		Name: "scripted",
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6},
		Script: []workload.Phase{
			{Duration: 250 * time.Millisecond, Threads: 2, Intensity: 1, Util: 1},
			{Duration: 1050 * time.Millisecond, Threads: 1, Intensity: intensity, Util: 0.7},
			{Duration: 700 * time.Millisecond, Threads: 2, Intensity: 0.8, Util: 1},
		},
	}}
}

// TestStreamingHorizonMaxInt64 pins the streaming paths at the top of the
// int64 time line: a pair evaluation, a traffic scenario and a timeline
// over 2 s scripted applications score the same whether the horizon is an
// hour or math.MaxInt64. Buffers reserved by the horizon's tick count
// cannot be allocated at math.MaxInt64.
func TestStreamingHorizonMaxInt64(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.StableWindow = time.Second
	ctx.RunFor = time.Hour
	a, b := scriptedApp("a", 0.5), scriptedApp("b", 0.3)
	late := b
	late.ID, late.BaseID, late.StartAt = "b-late", b.ID, 500*time.Millisecond
	traffic := Scenario{Apps: []AppSpec{a, late}}
	baselines, err := Measure(context.Background(), ctx, []AppSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	fs := []models.Factory{models.NewScaphandre(), models.NewKepler()}
	timeline := []timelineApp{{App: a}, {App: b, Start: 300 * time.Millisecond}}

	run := func(horizon time.Duration) ([]Evaluation, []TrafficEvaluation, TrafficEvaluation) {
		t.Helper()
		c := ctx
		c.RunFor = horizon
		pair, err := Evaluate(context.Background(), c, Campaign{
			Kind: PairCampaign, Scenarios: []Scenario{{Apps: []AppSpec{a, b}}}, Factories: FixedFactories(fs...), Baselines: baselines,
		})
		if err != nil {
			t.Fatalf("pair at %v: %v", horizon, err)
		}
		tr, err := Evaluate(context.Background(), ctx, Campaign{
			Kind: TrafficCampaign, Scenarios: []Scenario{traffic}, Factories: FixedFactories(fs...), Baselines: baselines, Window: horizon,
		})
		if err != nil {
			t.Fatalf("traffic at %v: %v", horizon, err)
		}
		tl, err := evaluateTimeline(ctx, timeline, fs[0], baselines, horizon)
		if err != nil {
			t.Fatalf("timeline at %v: %v", horizon, err)
		}
		return pair.pairs.rows, tr.traffic, tl
	}
	wantPair, wantTraffic, wantTimeline := run(time.Hour)
	gotPair, gotTraffic, gotTimeline := run(math.MaxInt64)
	if wantTimeline.ScoredTicks == 0 || wantTraffic[0].ScoredTicks == 0 || wantPair[0].ScoredTicks == 0 {
		t.Fatalf("nothing scored: pair %+v, traffic %+v, timeline %+v", wantPair[0], wantTraffic[0], wantTimeline)
	}
	if !reflect.DeepEqual(gotPair, wantPair) {
		t.Errorf("pair at MaxInt64 %+v, at an hour %+v", gotPair, wantPair)
	}
	if !reflect.DeepEqual(gotTraffic, wantTraffic) {
		t.Errorf("traffic at MaxInt64 %+v, at an hour %+v", gotTraffic, wantTraffic)
	}
	if !reflect.DeepEqual(gotTimeline, wantTimeline) {
		t.Errorf("timeline at MaxInt64 %+v, at an hour %+v", gotTimeline, wantTimeline)
	}
}
