package protocol

import (
	"context"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// TestRepsStreamingMatchesUnbatched pins the batched-repetition contract:
// EvaluateScenarioRepsStreaming's rows for seed k are bit-identical to the
// unbatched streaming evaluation run at Context.Seed = seeds[k], with each
// repetition scored against its own phase-1 truth. One simulator pass must
// be indistinguishable from len(seeds) passes.
func TestRepsStreamingMatchesUnbatched(t *testing.T) {
	for _, sp := range []struct {
		spec cpumodel.Spec
		ht   bool
	}{
		{cpumodel.SmallIntel(), false},
		{cpumodel.Dahu(), true},
	} {
		t.Run(sp.spec.Name, func(t *testing.T) {
			ctx := goldenContext(sp.spec, sp.ht)
			a0, err := StressApp("fibonacci", 1)
			if err != nil {
				t.Fatal(err)
			}
			a1, err := StressApp("matrixprod", 2)
			if err != nil {
				t.Fatal(err)
			}
			s := Scenario{Apps: []AppSpec{a0, a1}}
			seeds := []int64{11, 42, 1000003}

			// Per-seed truths, as a campaign at that seed would measure them;
			// one shared factory list, as the batch API requires.
			truths := make([][]division.Shares, len(seeds))
			var fs []models.Factory
			for r, seed := range seeds {
				repCtx := ctx
				repCtx.Seed = seed
				baselines := map[string]division.Baseline{}
				for _, app := range s.Apps {
					b, err := MeasureBaselineSummary(repCtx, app)
					if err != nil {
						t.Fatal(err)
					}
					baselines[app.ID] = b
				}
				truths[r], err = scenarioTruths(s, baselines, []Objective{ObjectiveActive, ObjectiveResidualAware}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if fs == nil {
					fs = goldenFactories(baselines, sp.spec)
				}
			}

			got, err := EvaluateScenarioRepsStreaming(context.Background(), ctx, s, fs, truths, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(seeds) {
				t.Fatalf("%d repetition rows, want %d", len(got), len(seeds))
			}
			for r, seed := range seeds {
				repCtx := ctx
				repCtx.Seed = seed
				plan := newCampaignPlan(repCtx, fs, nil)
				run := plan.pairRun(s)
				want, err := evaluateScenarioStreaming(context.Background(), plan, s, &run, truths[r])
				if err != nil {
					t.Fatal(err)
				}
				if len(got[r]) != len(want) {
					t.Fatalf("seed %d: %d factories, want %d", seed, len(got[r]), len(want))
				}
				for m := range want {
					if len(got[r][m]) != len(want[m]) {
						t.Fatalf("seed %d model %s: %d objectives, want %d",
							seed, fs[m].Name, len(got[r][m]), len(want[m]))
					}
					for o := range want[m] {
						compareStreamingEvaluations(t, fs[m].Name, want[m][o], got[r][m][o])
					}
				}
			}
		})
	}
}

// TestRepsStreamingShape pins the input contract: mismatched truth/seed
// lengths error, and an empty seed set evaluates to nothing.
func TestRepsStreamingShape(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	a0, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := StressApp("int64", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Apps: []AppSpec{a0, a1}}
	if _, err := EvaluateScenarioRepsStreaming(context.Background(), ctx, s, nil,
		make([][]division.Shares, 2), []int64{1}); err == nil {
		t.Fatal("mismatched truths/seeds accepted")
	}
	out, err := EvaluateScenarioRepsStreaming(context.Background(), ctx, s, nil, nil, nil)
	if err != nil || out != nil {
		t.Fatalf("empty seeds: got %v, %v", out, err)
	}
}
