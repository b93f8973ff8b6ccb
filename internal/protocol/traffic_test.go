package protocol

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// trafficTestWindow is the scenario duration for the hand-built campaigns.
const trafficTestWindow = 10 * time.Second

// trafficScenarios hand-builds three churn-heavy timed rosters. (The
// traffic generator lives downstream of this package — it imports protocol
// — so these tests construct AppSpecs with StartAt/StopAt/BaseID inline.)
func trafficScenarios(t *testing.T) []Scenario {
	t.Helper()
	mk := func(fn string, threads, seq int, start, stop time.Duration) AppSpec {
		a, err := StressApp(fn, threads)
		if err != nil {
			t.Fatal(err)
		}
		a.BaseID = a.ID
		a.ID = fmt.Sprintf("%s.%02d", a.ID, seq)
		a.StartAt, a.StopAt = start, stop
		return a
	}
	return []Scenario{
		// Steady baseload with arrivals and a mid-run exit; two instances
		// share the fibonacci-1 baseline.
		{Apps: []AppSpec{
			mk("fibonacci", 1, 0, 0, 0),
			mk("int64", 1, 0, 0, 0),
			mk("matrixprod", 2, 0, 2*time.Second, 6*time.Second),
			mk("rand", 1, 0, 5*time.Second, 0),
			mk("fibonacci", 1, 1, 7*time.Second, 9*time.Second),
		}},
		// Idle gap mid-run: everything exits by 5 s, late arrivals restart
		// the machine at 8 s. Exercises busy-tick accounting and the
		// simulator's refusal to early-exit before all starts.
		{Apps: []AppSpec{
			mk("fibonacci", 2, 0, 0, 4*time.Second),
			mk("matrixprod", 1, 0, 0, 5*time.Second),
			mk("int64", 2, 0, 8*time.Second, 0),
			mk("rand", 1, 0, 8500*time.Millisecond, 0),
		}},
		// Heavy same-type churn: four staggered fibonacci-1 instances all
		// sharing one baseline.
		{Apps: []AppSpec{
			mk("fibonacci", 1, 0, 0, 0),
			mk("fibonacci", 1, 1, time.Second, 4*time.Second),
			mk("fibonacci", 1, 2, 3*time.Second, 8*time.Second),
			mk("fibonacci", 1, 3, 6*time.Second, 0),
			mk("int64", 1, 0, 0, 0),
		}},
	}
}

func trafficGoldenSetup(t *testing.T) (Context, []Scenario, func(map[string]division.Baseline) []models.Factory) {
	t.Helper()
	spec := cpumodel.SmallIntel()
	ctx := goldenContext(spec, false)
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		return goldenFactories(baselines, spec)
	}
	return ctx, trafficScenarios(t), factories
}

func compareTrafficEvaluations(t *testing.T, model string, want, got TrafficEvaluation) {
	t.Helper()
	label := fmt.Sprintf("%s on %q", model, want.Scenario.Label())
	if math.Float64bits(want.AE) != math.Float64bits(got.AE) {
		t.Errorf("%s: AE %v != %v", label, want.AE, got.AE)
	}
	if math.Float64bits(want.Coverage) != math.Float64bits(got.Coverage) {
		t.Errorf("%s: Coverage %v != %v", label, want.Coverage, got.Coverage)
	}
	if want.BusyTicks != got.BusyTicks {
		t.Errorf("%s: BusyTicks %d != %d", label, want.BusyTicks, got.BusyTicks)
	}
	if want.ScoredTicks != got.ScoredTicks {
		t.Errorf("%s: ScoredTicks %d != %d", label, want.ScoredTicks, got.ScoredTicks)
	}
	if want.Scenario.Label() != got.Scenario.Label() {
		t.Errorf("%s: scenario label mismatch: %q != %q", label, want.Scenario.Label(), got.Scenario.Label())
	}
}

// TestTrafficStreamingDeterministic runs the same campaign twice through
// the streaming pipeline: per-model error tables must be bit-identical —
// the worker pool and factory scheduling must not leak into results.
func TestTrafficStreamingDeterministic(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)

	first, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	if err != nil {
		t.Fatal(err)
	}
	second, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	if err != nil {
		t.Fatal(err)
	}
	for model, evs := range first {
		for i := range evs {
			compareTrafficEvaluations(t, model, evs[i], second[model][i])
		}
	}
}

// TestTrafficEvaluationShape pins the churn-scoring semantics: coverage and
// tick counts are consistent, the idle-gap scenario reports fewer busy
// ticks than the window holds, and instance-level truth keys resolve even
// though baselines are shared per type.
func TestTrafficEvaluationShape(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)

	// Shared baselines: far fewer distinct types than instances.
	instances := 0
	for _, s := range scenarios {
		instances += len(s.Apps)
	}
	bases := BaselineAppsOf(scenarios)
	if len(bases) >= instances {
		t.Fatalf("no baseline sharing: %d baseline specs for %d instances", len(bases), instances)
	}
	for _, b := range bases {
		if b.BaseID != "" || b.StartAt != 0 || b.StopAt != 0 {
			t.Fatalf("baseline spec %s kept traffic fields: %+v", b.ID, b)
		}
	}

	results, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	if err != nil {
		t.Fatal(err)
	}
	totalTicks := int(trafficTestWindow / ctx.Machine.TickInterval())
	for model, evs := range results {
		if len(evs) != len(scenarios) {
			t.Fatalf("%s: %d evaluations for %d scenarios", model, len(evs), len(scenarios))
		}
		for _, ev := range evs {
			if ev.BusyTicks <= 0 || ev.BusyTicks > totalTicks {
				t.Errorf("%s on %q: BusyTicks %d outside (0, %d]", model, ev.Scenario.Label(), ev.BusyTicks, totalTicks)
			}
			if ev.ScoredTicks < 0 || ev.ScoredTicks > ev.BusyTicks {
				t.Errorf("%s on %q: ScoredTicks %d outside [0, %d]", model, ev.Scenario.Label(), ev.ScoredTicks, ev.BusyTicks)
			}
			if ev.Coverage < 0 || ev.Coverage > 1 {
				t.Errorf("%s on %q: Coverage %v outside [0,1]", model, ev.Scenario.Label(), ev.Coverage)
			}
			if ev.ScoredTicks > 0 && (ev.AE < 0 || math.IsNaN(ev.AE)) {
				t.Errorf("%s on %q: AE %v", model, ev.Scenario.Label(), ev.AE)
			}
			// The idle-gap scenario leaves the machine empty from 5 s to
			// 8 s: its busy count must fall short of the full window.
			if strings.HasPrefix(ev.Scenario.Label(), "fibonacci-2.00") && ev.BusyTicks >= totalTicks {
				t.Errorf("%s on %q: idle gap not reflected: BusyTicks %d of %d", model, ev.Scenario.Label(), ev.BusyTicks, totalTicks)
			}
		}
		sum := SummarizeTraffic(model, evs)
		if sum.MeanCoverage < 0 || sum.MeanCoverage > 1 {
			t.Errorf("%s: summary MeanCoverage %v", model, sum.MeanCoverage)
		}
		if sum.MaxAE > 0 && sum.WorstScenario == "" {
			t.Errorf("%s: MaxAE %v without a worst scenario", model, sum.MaxAE)
		}
	}

	// The oracle sees true active powers: it must dominate the naive
	// flat-share models on churn campaigns, not just tie them.
	oracle, ok := results["oracle"]
	if !ok {
		t.Fatal("campaign has no oracle model")
	}
	if s := SummarizeTraffic("oracle", oracle); s.MeanAE > 0.15 {
		t.Errorf("oracle MeanAE %v on churn campaign (want small)", s.MeanAE)
	}
}

// TestTrafficRejectsBadInput pins the error paths: non-positive windows and
// rosters without baselines must fail loudly, not score garbage.
func TestTrafficRejectsBadInput(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)
	if _, err := trafficTable(context.Background(), ctx, scenarios, factories, 0); err == nil {
		t.Error("Evaluate accepted a zero traffic window")
	}
	if _, err := trafficTable(context.Background(), ctx, scenarios, factories, -time.Second); err == nil {
		t.Error("Evaluate accepted a negative traffic window")
	}
}

// TestTrafficScoringTailAllocsIndependentOfWindow pins the per-run
// objective and the running Eq 5 sum: the scoring tail of one roster
// allocates the same number of times over a 10 s and a 60 s window, so
// nothing in it allocates per tick. It also pins the pooled scoring view:
// refilling a released view with the scenario's segments reproduces the
// view and, outside the race detector (whose pools drop items at random),
// allocates nothing at either window.
func TestTrafficScoringTailAllocsIndependentOfWindow(t *testing.T) {
	ctx, scenarios, factories := trafficGoldenSetup(t)
	s := scenarios[0]
	baselines, err := Measure(context.Background(), ctx, BaselineAppsOf([]Scenario{s}))
	if err != nil {
		t.Fatal(err)
	}
	fs := factories(baselines)
	res := Result{n: 1, traffic: make([]TrafficEvaluation, len(fs))}
	var allocs, ticks []float64
	for _, window := range []time.Duration{10 * time.Second, 60 * time.Second} {
		ctx.RunFor = window
		p := newCampaignPlan(ctx, fs, TrafficCampaign)
		run := p.run(s)
		view, replay, err := p.streamTraffic(context.Background(), &run)
		if err != nil {
			t.Fatal(err)
		}
		slotBase, err := trafficSlotBaselines(s, run.roster.IDs(), baselines)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.scoreTraffic(s, view, slotBase, replay, res, 0); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			p.scoreTraffic(s, view, slotBase, replay, res, 0)
		}))
		ticks = append(ticks, float64(len(view.power)))
		replay.Release()

		segs := viewSegments(view)
		refill := func() *trafficView {
			v := newTrafficView(view.n, len(view.power))
			for i := range segs {
				v.observeSegment(&segs[i])
			}
			return v
		}
		v := refill()
		if !slices.Equal(v.power, view.power) || !slices.Equal(v.runStart, view.runStart) || !slices.Equal(v.presence, view.presence) {
			t.Fatalf("window %v: refilled view differs from the streamed one", window)
		}
		v.release()
		view.release()
		if n := testing.AllocsPerRun(20, func() { refill().release() }); n != 0 && !raceEnabled {
			t.Errorf("window %v: refilling a pooled view allocates %v times, want 0", window, n)
		}
	}
	if ticks[1] < 5*ticks[0] {
		t.Fatalf("windows scored %v ticks, want the 60 s window ≥5× the 10 s one", ticks)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("scoring tail allocs: %v at 10 s, %v at 60 s; want equal", allocs[0], allocs[1])
	}
}

// viewSegments rebuilds a scoring view's input: one segment per presence
// run, carrying the run's per-tick power and a roster column whose slots
// are present exactly where the run's column is.
func viewSegments(v *trafficView) []machine.Segment {
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
