package protocol

import (
	"context"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
)

// TestPairScoringTailAllocsIndependentOfRunLength is the pair twin of
// TestTrafficScoringTailAllocsIndependentOfWindow: scoring one lab pair —
// every model against two objectives, then writing the rows — allocates
// the same number of times over a 30 s and a 120 s run, so nothing in the
// tail allocates per tick.
func TestPairScoringTailAllocsIndependentOfRunLength(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	a, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StressApp("matrixprod", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Apps: []AppSpec{a, b}}
	baselines, err := Measure(context.Background(), ctx, AppsOf([]Scenario{s}))
	if err != nil {
		t.Fatal(err)
	}
	truths, err := scenarioTruths(s, baselines, []Objective{ObjectiveActive, ObjectiveResidualAware}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var allocs, ticks []float64
	for _, runFor := range []time.Duration{30 * time.Second, 120 * time.Second} {
		ctx.RunFor = runFor
		p := newCampaignPlan(ctx, goldenFactories(baselines, ctx.Machine.Spec), PairCampaign)
		run := p.run(s)
		scr := getScoreScratch()
		replay, ts, err := p.streamPair(context.Background(), &run, scr)
		if err != nil {
			t.Fatal(err)
		}
		res := Result{n: 1, objs: len(truths), pairs: make([]Evaluation, len(p.fs)*len(truths))}
		score := func() {
			if err := p.scorePair(s, &run, ts, replay, truths, scr, res, 0); err != nil {
				t.Fatal(err)
			}
		}
		score()
		allocs = append(allocs, testing.AllocsPerRun(20, score))
		ticks = append(ticks, float64(len(ts.at)))
		replay.Release()
		putScoreScratch(scr)
	}
	if ticks[1] < 3*ticks[0] {
		t.Fatalf("runs scored %v ticks, want the 120 s run ≥3× the 30 s one", ticks)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("pair scoring tail allocs: %v at 30 s, %v at 120 s; want equal", allocs[0], allocs[1])
	}
}
