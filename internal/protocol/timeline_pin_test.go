package protocol

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// TestEvaluateTimelinePinned freezes a TimelineCampaign's rows bit for bit
// on two machines. In the churn timeline three different applications
// arrive and depart so the per-tick objective changes at every context
// switch, and PowerAPI's relearning leaves unscored busy ticks. In the
// idle-gap timeline every application leaves, the machine idles, and one
// arrives later, so idle ticks sit between scored stretches. The map-only
// factory hides Scaphandre's segment method, pinning the per-tick Observe
// fallback too. The golden corpus does not reach the timeline evaluator;
// this pin is its oracle. Baselines are looked up by map key, so renaming
// every Baseline.ID leaves the pins unchanged.
func TestEvaluateTimelinePinned(t *testing.T) {
	t.Parallel()
	type pin struct {
		ae, coverage uint64
		busy, scored int
	}
	want := map[string]pin{
		"SMALL INTEL/scaphandre":          {0x3fa8990845fd1f0c, 0x3ff0000000000000, 480, 480},
		"SMALL INTEL/powerapi":            {0x3fa8990845fd1ec0, 0x3fc5555555555555, 480, 80},
		"DAHU/scaphandre":                 {0x3f95834cc79de3ad, 0x3ff0000000000000, 480, 480},
		"DAHU/powerapi":                   {0x3fbc3b7b2871035b, 0x3fc5555555555555, 480, 80},
		"SMALL INTEL/maponly":             {0x3fa8990845fd1f0c, 0x3ff0000000000000, 480, 480},
		"SMALL INTEL/idle-gap/scaphandre": {0x3fb0842108420fe0, 0x3ff0000000000000, 320, 320},
		"SMALL INTEL/idle-gap/powerapi":   {0x3fb294a5294a51c3, 0x3fd4000000000000, 320, 100},
		"SMALL INTEL/idle-gap/maponly":    {0x3fb0842108420fe0, 0x3ff0000000000000, 320, 320},
		"DAHU/maponly":                    {0x3f95834cc79de3ad, 0x3ff0000000000000, 480, 480},
		"DAHU/idle-gap/scaphandre":        {0x3f9845c8a0ce3d81, 0x3ff0000000000000, 320, 320},
		"DAHU/idle-gap/powerapi":          {0x3fc2fc962fc965c6, 0x3fd4000000000000, 320, 100},
		"DAHU/idle-gap/maponly":           {0x3f9845c8a0ce3d81, 0x3ff0000000000000, 320, 320},
	}
	// Scaphandre behind a struct that exposes only the Model interface.
	mapOnly := models.Factory{Name: "maponly", New: func(seed int64) models.Model {
		return struct{ models.Model }{models.NewScaphandre().New(seed)}
	}}
	for _, spec := range []cpumodel.Spec{cpumodel.SmallIntel(), cpumodel.Dahu()} {
		ctx := DefaultContext(machine.Config{Spec: spec, NoiseStddev: 0.25, Seed: 3})
		a := mustStressApp(t, "matrixprod", 2)
		b := mustStressApp(t, "fibonacci", 1)
		c := mustStressApp(t, "int64", 2)
		timelines := []struct {
			name   string
			apps   []timelineApp
			maxDur time.Duration
		}{
			{"", []timelineApp{
				{App: a},
				{App: b, Start: 12 * time.Second, Stop: 36 * time.Second},
				{App: c, Start: 24 * time.Second},
			}, 48 * time.Second},
			{"idle-gap/", []timelineApp{
				{App: a, Stop: 18 * time.Second},
				{App: b, Start: 2 * time.Second, Stop: 18 * time.Second},
				{App: c, Start: 26 * time.Second},
			}, 40 * time.Second},
		}
		for _, tl := range timelines {
			baselines := timelineBaselines(t, ctx, tl.apps)
			// The map key names the application; Baseline.ID is not read. An
			// entry whose ID field differs from its key scores the same.
			renamed := make(map[string]division.Baseline, len(baselines))
			for id, b := range baselines {
				b.ID = "renamed-" + id
				renamed[id] = b
			}
			for _, f := range []models.Factory{models.NewScaphandre(), models.NewPowerAPI(models.DefaultPowerAPIConfig()), mapOnly} {
				key := spec.Name + "/" + tl.name + f.Name
				for _, bs := range []map[string]division.Baseline{baselines, renamed} {
					res, err := evaluateTimeline(ctx, tl.apps, f, bs, tl.maxDur)
					if err != nil {
						t.Fatal(err)
					}
					got := pin{math.Float64bits(res.AE), math.Float64bits(res.Coverage), res.BusyTicks, res.ScoredTicks}
					if w, ok := want[key]; !ok || got != w {
						t.Errorf("%s (baseline IDs %q...): got %+v, want %+v", key, bs[a.ID].ID, got, w)
					}
				}
			}
		}
	}
}
