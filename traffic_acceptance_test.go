// Acceptance test for the production-shaped traffic pipeline: a large
// generated churn campaign is scored twice on the fused streaming path and
// must yield bit-identical per-model error tables with bounded live heap.
package powerdiv_test

import (
	"context"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/experiments"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
	"powerdiv/internal/units"
)

// trafficHeapCeiling bounds the live-heap watermark of the 200-scenario
// streaming campaign. The streaming pipeline holds one scenario's estimate
// matrices and scoring view per worker (single-digit megabytes across the
// pool); the ceiling gives 2x headroom over that envelope plus the test
// binary's own baseline, while a pipeline that materialized or cached the
// 200 churn runs would blow straight through it.
const trafficHeapCeiling = 32 << 20

func TestTrafficAcceptanceCampaign(t *testing.T) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), 2024)
	cfg := experiments.TrafficConfig(ctx, traffic.Mixed, 201, 10*time.Second)
	cfg.ArrivalsPerMinute = 30
	scenarios, err := traffic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) < 200 {
		t.Fatalf("generated %d scenarios, want ≥200", len(scenarios))
	}
	// Mixed cycles the three arrival shapes across scenarios.
	for i, kind := range []traffic.Kind{traffic.Poisson, traffic.Bursty, traffic.Diurnal} {
		if got := cfg.ScenarioKind(i); got != kind {
			t.Fatalf("scenario %d kind %v, want %v", i, got, kind)
		}
	}

	// Drop what earlier tests in this binary left in the default cache
	// scope so the watermark measures the streaming campaign, not those
	// leftovers.
	protocol.DefaultScope().Drop()
	stopWatermark := startHeapWatermark()

	factories := func(baselines map[string]division.Baseline) []models.Factory {
		perCore := map[string]units.Watts{}
		for _, s := range scenarios {
			for _, a := range s.Apps {
				if b, ok := baselines[a.BaseID]; ok {
					perCore[a.ID] = b.ActivePerCore()
				}
			}
		}
		return []models.Factory{
			models.NewScaphandre(),
			models.NewPowerAPI(models.DefaultPowerAPIConfig()),
			models.NewKepler(),
			models.NewSmartWatts(models.DefaultSmartWattsConfig()),
			models.NewF2(perCore),
			models.NewOracle(),
		}
	}

	run := func() map[string][]protocol.TrafficEvaluation {
		res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
			Kind: protocol.TrafficCampaign, Scenarios: scenarios, Factories: factories, Window: cfg.Window,
		})
		if err != nil {
			t.Fatal(err)
		}
		byModel := map[string][]protocol.TrafficEvaluation{}
		for m, f := range res.Factories {
			byModel[f.Name] = res.Traffic(m)
		}
		return byModel
	}
	first := run()
	second := run()
	peak := stopWatermark()

	if len(first) == 0 {
		t.Fatal("campaign scored no models")
	}
	for model, evs := range first {
		if len(evs) != len(scenarios) {
			t.Fatalf("%s: %d evaluations for %d scenarios", model, len(evs), len(scenarios))
		}
		got := second[model]
		for i := range evs {
			if math.Float64bits(evs[i].AE) != math.Float64bits(got[i].AE) ||
				math.Float64bits(evs[i].Coverage) != math.Float64bits(got[i].Coverage) ||
				evs[i].BusyTicks != got[i].BusyTicks ||
				evs[i].ScoredTicks != got[i].ScoredTicks {
				t.Fatalf("%s scenario %d: runs diverged: %+v vs %+v", model, i, evs[i], got[i])
			}
		}
	}
	t.Logf("peak live heap: %.1f MiB over %d scenarios", peak/(1<<20), len(scenarios))
	if peak > trafficHeapCeiling {
		t.Errorf("peak live heap %.1f MiB exceeds the %d MiB streaming ceiling",
			peak/(1<<20), trafficHeapCeiling>>20)
	}
}
