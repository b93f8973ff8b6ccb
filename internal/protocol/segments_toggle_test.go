package protocol

import (
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// TestSegmentToggleInvariance pins the whole-protocol acceptance bar for
// the segment engine: the lab error table and the traffic error table are
// Float64bits-identical with the engine on and
// off. Memoization is disabled so both runs actually simulate; the
// comparison therefore spans the simulator, the model observers and the
// scoring tail.
func TestSegmentToggleInvariance(t *testing.T) {
	defer machine.SetSegmented(machine.SetSegmented(true))
	EnableMemoization(false)
	defer func() {
		EnableMemoization(true)
		ResetMemoization()
	}()

	spec := cpumodel.SmallIntel()
	ctx := goldenContext(spec, false)
	a0, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{Apps: []AppSpec{a0, a1}},
	}
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		return goldenFactories(baselines, spec)
	}

	t.Run("lab", func(t *testing.T) {
		run := func() map[string][]Evaluation {
			ResetMemoization()
			out, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		machine.SetSegmented(false)
		want := run()
		machine.SetSegmented(true)
		got := run()
		if len(got) != len(want) {
			t.Fatalf("%d models with segments, %d without", len(got), len(want))
		}
		for name, wantEvs := range want {
			gotEvs, ok := got[name]
			if !ok || len(gotEvs) != len(wantEvs) {
				t.Fatalf("model %s missing or wrong length", name)
			}
			for i := range wantEvs {
				compareStreamingEvaluations(t, name, wantEvs[i], gotEvs[i])
			}
		}
	})

	t.Run("traffic", func(t *testing.T) {
		tctx, tscenarios, tfactories := trafficGoldenSetup(t)
		run := func() map[string][]TrafficEvaluation {
			out, err := EvaluateTrafficStreaming(tctx, tscenarios, tfactories, trafficTestWindow)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		machine.SetSegmented(false)
		want := run()
		machine.SetSegmented(true)
		got := run()
		if len(got) != len(want) {
			t.Fatalf("%d models with segments, %d without", len(got), len(want))
		}
		for name, wantEvs := range want {
			gotEvs, ok := got[name]
			if !ok || len(gotEvs) != len(wantEvs) {
				t.Fatalf("model %s missing or wrong length", name)
			}
			for i := range wantEvs {
				compareTrafficEvaluations(t, name, wantEvs[i], gotEvs[i])
			}
		}
	})
}
