package protocol

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/rng"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
)

// mapEvaluation is a pair row as the map pipeline produced it: the truth
// and estimated shares keyed by application ID.
type mapEvaluation struct {
	AE              float64
	Truth, EstShare division.Shares
	Point           division.RatioPoint
	ScoredTicks     int
}

// mapTruths is the map pipeline's truth construction, kept as the
// reference: each objective's weights keyed by the scenario's application
// IDs, normalized in sorted-ID order (positive weights summed, negative
// ones clamped to 0), one share map per objective.
func mapTruths(t *testing.T, s Scenario, baselines map[string]division.Baseline, objectives []Objective, r0 units.Watts) []division.Shares {
	t.Helper()
	minR := baselines[s.Apps[0].ID].Residual
	for _, a := range s.Apps[1:] {
		if r := baselines[a.ID].Residual; r < minR {
			minR = r
		}
	}
	truths := make([]division.Shares, len(objectives))
	for o, obj := range objectives {
		weights := map[string]float64{}
		for _, a := range s.Apps {
			b := baselines[a.ID]
			switch obj {
			case ObjectiveActive:
				weights[a.ID] = float64(b.Active())
			case ObjectiveResidualAware:
				weights[a.ID] = float64(b.Active() + (b.Residual - minR))
			case ObjectiveNominalResidual:
				weights[a.ID] = float64(b.Total - r0)
			}
		}
		ids := make([]string, 0, len(weights))
		for id := range weights {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var total float64
		for _, id := range ids {
			if w := weights[id]; w > 0 {
				total += w
			}
		}
		if total <= 0 {
			t.Fatalf("degenerate objective %v for %q", obj, s.Label())
		}
		truths[o] = division.Shares{}
		for _, id := range ids {
			w := weights[id]
			if w < 0 {
				w = 0
			}
			truths[o][id] = w / total
		}
	}
	return truths
}

// scoreRunMapReference is the pre-columnar phase 3 pipeline, kept as the
// golden reference: per-tick Observe, nil-map coverage, map-keyed
// mean estimates and division.AbsoluteError over map shares. The streaming
// evaluator must reproduce it bit for bit.
func scoreRunMapReference(ctx Context, s Scenario, run *machine.Run, factory models.Factory, truths []division.Shares) ([]mapEvaluation, error) {
	model := factory.New(rng.Derive(ctx.Seed, "model", factory.Name, s.Label()))
	ests := make([]map[string]units.Watts, len(run.Ticks))
	tick := models.Tick{
		Interval:    run.Tick(),
		LogicalCPUs: run.Config.Spec.Topology.LogicalCPUs(),
		Roster:      run.Roster,
		Samples:     make([]models.ProcSample, run.Roster.Len()),
	}
	for i := range run.Ticks {
		rec := &run.Ticks[i]
		for slot := range rec.Procs {
			tick.Samples[slot] = models.SampleOf(&rec.Procs[slot])
		}
		tick.At, tick.MachinePower, tick.Freq = rec.At, rec.Power, rec.Freq
		ests[i] = model.Observe(tick)
	}

	ok := make([]bool, len(ests))
	for i, est := range ests {
		ok[i] = est != nil
	}
	from, to := stableScoringWindow(ctx, runPower(run), run.Config.TickInterval(), ok, trace.New())
	if to <= from {
		return nil, fmt.Errorf("protocol: scenario %q: model %s produced no estimates", s.Label(), factory.Name)
	}
	scoredEsts := make([]map[string]units.Watts, 0, len(run.Ticks))
	scoredPower := make([]units.Watts, 0, len(run.Ticks))
	meanEst := map[string]float64{}
	for i, rec := range run.Ticks {
		if rec.At < from || rec.At >= to || ests[i] == nil {
			continue
		}
		scoredEsts = append(scoredEsts, ests[i])
		scoredPower = append(scoredPower, rec.Power)
		for id, w := range ests[i] {
			meanEst[id] += float64(w)
		}
	}
	var meanPower float64
	for _, p := range scoredPower {
		meanPower += float64(p)
	}
	estShare := division.Shares{}
	for id, sum := range meanEst {
		if meanPower > 0 {
			estShare[id] = sum / meanPower
		}
	}

	out := make([]mapEvaluation, len(truths))
	for i, truth := range truths {
		ev := mapEvaluation{Truth: truth, EstShare: estShare}
		ae, err := division.AbsoluteError(scoredEsts, scoredPower, division.ConstShares(len(scoredEsts), truth))
		if err != nil {
			return nil, fmt.Errorf("protocol: scenario %q: %w", s.Label(), err)
		}
		ev.AE = ae
		ev.ScoredTicks = len(scoredEsts)
		if len(s.Apps) == 2 {
			id0, id1 := s.Apps[0].ID, s.Apps[1].ID
			ev.Point = division.RatioPoint{
				X:     division.RatioPercent(truth[id0], truth[id1]),
				Y:     division.RatioPercent(estShare[id0], estShare[id1]),
				Label: s.Label(),
			}
		}
		out[i] = ev
	}
	return out, nil
}

// runPower projects a materialized run down to the scoring view's power.
func runPower(run *machine.Run) []units.Watts {
	power := make([]units.Watts, len(run.Ticks))
	for i := range run.Ticks {
		power[i] = run.Ticks[i].Power
	}
	return power
}

func goldenContext(spec cpumodel.Spec, hyperthreading bool) Context {
	cfg := machine.Config{Spec: spec, NoiseStddev: 0.25, Hyperthreading: hyperthreading, Turbo: hyperthreading}
	ctx := DefaultContext(cfg)
	ctx.RunFor = 12 * time.Second
	ctx.StableWindow = 5 * time.Second
	ctx.Seed = 11
	return ctx
}

func goldenFactories(baselines map[string]division.Baseline, spec cpumodel.Spec) []models.Factory {
	perCore := map[string]units.Watts{}
	for id, b := range baselines {
		perCore[id] = b.ActivePerCore()
	}
	return []models.Factory{
		models.NewScaphandre(),
		models.NewKepler(),
		models.NewPowerAPI(models.DefaultPowerAPIConfig()),
		models.NewSmartWatts(models.DefaultSmartWattsConfig()),
		models.NewF2(perCore),
		models.NewResidualAwareFromSpec(spec),
		models.NewOracle(),
	}
}

// TestDenseScoringMatchesMapReference pins the columnar pipeline against
// the retired map pipeline: on both machines, every model's evaluation from
// a one-scenario pair Evaluate, under every objective at once, is
// bit-identical (not merely close) to the map reference scoring a run
// materialized with machine.Simulate under the same derived seed. Each
// model is evaluated on its own, so a model that produces no estimates
// must fail on both sides without masking the rest.
func TestDenseScoringMatchesMapReference(t *testing.T) {
	t.Parallel()
	specs := []struct {
		spec cpumodel.Spec
		ht   bool
	}{
		{cpumodel.SmallIntel(), false},
		{cpumodel.Dahu(), true},
	}
	for _, sp := range specs {
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
			a2, err := StressApp("int64", 1)
			if err != nil {
				t.Fatal(err)
			}
			scenarios := []Scenario{
				{Apps: []AppSpec{a0, a1}},
				{Apps: []AppSpec{a1, a2}},
				{Apps: []AppSpec{a0, a1, a2}},
			}
			baselines, err := Measure(context.Background(), ctx, AppsOf(scenarios))
			if err != nil {
				t.Fatal(err)
			}
			objectives := []Objective{ObjectiveActive, ObjectiveResidualAware}
			for _, s := range scenarios {
				truths := mapTruths(t, s, baselines, objectives, 0)
				cfg := ctx.Machine
				cfg.Seed = rng.Derive(ctx.Seed, "pair", s.Label())
				procs := make([]machine.Proc, len(s.Apps))
				for i, a := range s.Apps {
					procs[i] = a.proc()
				}
				run, err := machine.Simulate(cfg, procs, ctx.RunFor)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range goldenFactories(baselines, sp.spec) {
					want, wantErr := scoreRunMapReference(ctx, s, run, f, truths)
					got, gotErr := Evaluate(context.Background(), ctx, Campaign{
						Kind: PairCampaign, Scenarios: []Scenario{s}, Factories: FixedFactories(f),
						Baselines: baselines, Objectives: objectives,
					})
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s on %q: map err %v, streaming err %v", f.Name, s.Label(), wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					for i := range objectives {
						compareEvaluations(t, f.Name, s, want[i], got.Pairs(0, i)[0])
					}
				}
			}
		})
	}
}

// compareEvaluations checks a dense row against the map reference's: AE,
// scored ticks and point bit for bit, and each application's truth and
// estimated share against the map entry under its ID. The dense pipeline
// reports a (zero) share for every application; the map pipeline only for
// estimated ones. Where both define a share the values must be
// bit-identical, and dense extras must be zero.
func compareEvaluations(t *testing.T, model string, s Scenario, want mapEvaluation, got Evaluation) {
	t.Helper()
	label := fmt.Sprintf("%s on %q", model, s.Label())
	if math.Float64bits(want.AE) != math.Float64bits(got.AE) {
		t.Errorf("%s: AE %v (map) != %v (dense)", label, want.AE, got.AE)
	}
	if want.ScoredTicks != got.ScoredTicks {
		t.Errorf("%s: ScoredTicks %d != %d", label, want.ScoredTicks, got.ScoredTicks)
	}
	if len(got.Truth) != len(s.Apps) || len(got.EstShare) != len(s.Apps) || len(want.Truth) != len(s.Apps) {
		t.Fatalf("%s: %d applications, dense Truth/EstShare %d/%d, map Truth %d", label, len(s.Apps), len(got.Truth), len(got.EstShare), len(want.Truth))
	}
	for a, app := range s.Apps {
		if w, ok := want.EstShare[app.ID]; ok && math.Float64bits(w) != math.Float64bits(got.EstShare[a]) {
			t.Errorf("%s: EstShare[%s] %v != %v", label, app.ID, w, got.EstShare[a])
		} else if !ok && got.EstShare[a] != 0 {
			t.Errorf("%s: dense EstShare[%s] = %v for unestimated process", label, app.ID, got.EstShare[a])
		}
		if tw := want.Truth[app.ID]; math.Float64bits(tw) != math.Float64bits(got.Truth[a]) {
			t.Errorf("%s: Truth[%s] %v != %v", label, app.ID, tw, got.Truth[a])
		}
	}
	if math.Float64bits(want.Point.X) != math.Float64bits(got.Point.X) ||
		math.Float64bits(want.Point.Y) != math.Float64bits(got.Point.Y) {
		t.Errorf("%s: Point (%v,%v) != (%v,%v)", label, want.Point.X, want.Point.Y, got.Point.X, got.Point.Y)
	}
}

// compareStreamingEvaluations requires full bit-identity of two dense
// rows: AE, scored ticks, point and every entry of both share vectors.
func compareStreamingEvaluations(t *testing.T, model string, want, got Evaluation) {
	t.Helper()
	label := fmt.Sprintf("%s on %q", model, want.Scenario.Label())
	if math.Float64bits(want.AE) != math.Float64bits(got.AE) {
		t.Errorf("%s: AE %v != %v", label, want.AE, got.AE)
	}
	if want.ScoredTicks != got.ScoredTicks {
		t.Errorf("%s: ScoredTicks %d != %d", label, want.ScoredTicks, got.ScoredTicks)
	}
	if math.Float64bits(want.Point.X) != math.Float64bits(got.Point.X) ||
		math.Float64bits(want.Point.Y) != math.Float64bits(got.Point.Y) {
		t.Errorf("%s: Point (%v,%v) != (%v,%v)", label, want.Point.X, want.Point.Y, got.Point.X, got.Point.Y)
	}
	for _, c := range []struct {
		name      string
		want, got []float64
	}{{"Truth", want.Truth, got.Truth}, {"EstShare", want.EstShare, got.EstShare}} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: %s sizes %d != %d", label, c.name, len(c.want), len(c.got))
			continue
		}
		for a := range c.want {
			if math.Float64bits(c.want[a]) != math.Float64bits(c.got[a]) {
				t.Errorf("%s: %s[%s] %v != %v", label, c.name, want.Scenario.Apps[a].ID, c.want[a], c.got[a])
			}
		}
	}
}
