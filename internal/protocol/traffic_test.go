package protocol

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
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

// TestSummarizeTrafficSkipsUnscoredRows pins that a scenario in which the
// model scored no tick has no error, not a zero one: the AE aggregates and
// the worst scenario are over the scored rows only, coverage is over every
// row, and Scored counts the scored rows.
func TestSummarizeTrafficSkipsUnscoredRows(t *testing.T) {
	t.Parallel()
	scored := TrafficEvaluation{Scenario: Scenario{Apps: []AppSpec{{ID: "a"}, {ID: "b"}}}, AE: 0.08, Coverage: 0.5, BusyTicks: 10, ScoredTicks: 5}
	unscored := TrafficEvaluation{Scenario: Scenario{Apps: []AppSpec{{ID: "c"}}}, BusyTicks: 10}
	s := SummarizeTraffic("m", []TrafficEvaluation{unscored, scored, unscored})
	if s.MeanAE != 0.08 || s.MaxAE != 0.08 || s.WorstScenario != "a || b" {
		t.Errorf("AE aggregates %v / %v (worst %q), want 0.08 / 0.08 over the scored row %q", s.MeanAE, s.MaxAE, s.WorstScenario, "a || b")
	}
	if s.Scored != 1 {
		t.Errorf("Scored = %d, want 1", s.Scored)
	}
	if want := 0.5 / 3; math.Abs(s.MeanCoverage-want) > 1e-15 {
		t.Errorf("MeanCoverage = %v, want %v over every row", s.MeanCoverage, want)
	}
	if none := SummarizeTraffic("m", []TrafficEvaluation{unscored}); none.Scored != 0 || none.MeanAE != 0 || none.WorstScenario != "" {
		t.Errorf("all-unscored summary %+v, want no scored rows and no AE", none)
	}
	exact := scored
	exact.AE = 0
	if zero := SummarizeTraffic("m", []TrafficEvaluation{exact, exact}); zero.Scored != 2 || zero.MaxAE != 0 || zero.WorstScenario != "" {
		t.Errorf("zero-error summary %+v, want 2 scored rows and no worst scenario", zero)
	}
}
