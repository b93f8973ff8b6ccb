package protocol

import (
	"context"
	"slices"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
)

// TestScoringTailAllocsIndependentOfLength pins the one scoring tail per
// campaign kind: scoring one scenario — the truth per presence run, every
// model's running Eq 5 sums (against two objectives for the pair), then
// writing the rows — allocates the same number of times over a short and a
// long run, so nothing in the tail allocates per tick. It also pins the
// pooled scoring view: refilling a released view with the scenario's
// segments reproduces the view and, outside the race detector (whose pools
// drop items at random), allocates nothing at either length.
func TestScoringTailAllocsIndependentOfLength(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	pair := Scenario{Apps: []AppSpec{mustStressApp(t, "fibonacci", 2), mustStressApp(t, "matrixprod", 1)}}
	var timeline Scenario
	for _, ta := range fig11Timeline(t) {
		a := ta.App
		a.StartAt, a.StopAt = ta.Start, ta.Stop
		timeline.Apps = append(timeline.Apps, a)
	}
	for _, c := range []struct {
		name        string
		kind        CampaignKind
		s           Scenario
		objectives  []Objective
		short, long time.Duration
		// minRatio is the least long/short tick ratio that makes the
		// comparison meaningful.
		minRatio float64
	}{
		{"pairs", PairCampaign, pair, []Objective{ObjectiveActive, ObjectiveResidualAware}, 30 * time.Second, 120 * time.Second, 3},
		{"traffic", TrafficCampaign, trafficScenarios(t)[0], nil, 10 * time.Second, 60 * time.Second, 5},
		{"timeline", TimelineCampaign, timeline, nil, 60 * time.Second, 240 * time.Second, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			baselines, err := Measure(context.Background(), ctx, BaselineAppsOf([]Scenario{c.s}))
			if err != nil {
				t.Fatal(err)
			}
			fs := goldenFactories(baselines, ctx.Machine.Spec)
			res := Result{n: 1, objs: len(c.objectives), pairs: make([]Evaluation, len(fs)*len(c.objectives)), traffic: make([]TrafficEvaluation, len(fs))}
			var allocs, ticks []float64
			for _, length := range []time.Duration{c.short, c.long} {
				lctx := ctx
				lctx.RunFor = length
				p := newCampaignPlan(lctx, fs, c.kind)
				p.baselines, p.objectives = baselines, c.objectives
				run := p.run(c.s)
				src, err := p.truthSource(c.s, &run)
				if err != nil {
					t.Fatal(err)
				}
				view, replay, err := p.stream(context.Background(), &run)
				if err != nil {
					t.Fatal(err)
				}
				score := func() {
					if err := p.score(c.s, &run, view, src, replay, res, 0); err != nil {
						t.Fatal(err)
					}
				}
				score()
				allocs = append(allocs, testing.AllocsPerRun(20, score))
				ticks = append(ticks, float64(len(view.power)))
				replay.Release()

				segs := viewSegments(view)
				refill := func() *scoringView {
					v := newScoringView(view.n, len(view.power), view.interval)
					for i := range segs {
						v.observeSegment(&segs[i])
					}
					return v
				}
				v := refill()
				if !slices.Equal(v.power, view.power) || !slices.Equal(v.runStart, view.runStart) || !slices.Equal(v.presence, view.presence) {
					t.Fatalf("%v: refilled view differs from the streamed one", length)
				}
				v.release()
				view.release()
				if n := testing.AllocsPerRun(20, func() { refill().release() }); n != 0 && !raceEnabled {
					t.Errorf("%v: refilling a pooled view allocates %v times, want 0", length, n)
				}
			}
			if ticks[1] < c.minRatio*ticks[0] {
				t.Fatalf("runs scored %v ticks, want the %v run ≥%v× the %v one", ticks, c.long, c.minRatio, c.short)
			}
			if allocs[0] != allocs[1] {
				t.Errorf("scoring tail allocs: %v at %v, %v at %v; want equal", allocs[0], c.short, allocs[1], c.long)
			}
		})
	}
}

// viewSegments rebuilds a scoring view's input: one segment per presence
// run, carrying the run's per-tick power and a roster column whose slots
// are present exactly where the run's column is.
func viewSegments(v *scoringView) []machine.Segment {
	segs := make([]machine.Segment, len(v.runStart))
	for r := range segs {
		procs := make([]machine.ProcTick, v.n)
		for slot, present := range v.column(r) {
			if present {
				procs[slot].Threads = 1
			}
		}
		segs[r] = machine.Segment{Rec: &machine.TickRecord{Procs: procs}, Powers: v.power[v.runStart[r]:v.runEnd(r)]}
	}
	return segs
}
