package protocol

import (
	"context"
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
)

// This file is protocol phases 2–3: simulate → observe → score in one
// pass per scenario, with O(ticks-in-flight) simulator state. The models
// observe each segment as the simulator produces it, so per scenario the
// only O(ticks) state kept is what scoring needs anyway — the per-model
// estimate matrices and the power/time scoring view. Pair runs are never
// materialized and never cached, which is where the memory goes: the
// byte-capped summary cache (cache.go) keeps only the compact phase 1
// solo-run digests, and the evaluation-digest tier (cache_eval.go) only
// the scored rows.
//
// Every campaign entry point — EvaluatePair, EvaluateCampaign,
// EvaluateModelsStreaming and the per-scenario units the campaign service
// shards jobs into — runs through evaluateScenarioCached. The golden
// corpus (internal/experiments/testdata) pins their tables bit for bit,
// and the map-reference test pins the columnar scoring against the
// original per-tick map pipeline.

// evaluateScenarioStreaming runs phases 2–3 for one scenario in a single
// simulator pass, scoring every factory: the scenario is simulated exactly
// once and all models observe the stream as it runs. The result is
// indexed [factory][objective], matching truths.
//
// The scenario streams segment by segment (machine.StreamSegments): the
// simulator evaluates each constant segment once, and the models observe
// it through StreamReplay.ObserveSegment — the model-side counterpart of
// the segment engine, bit-identical to per-tick observation.
//
// cctx is the cancellation seam: it is polled once per simulated tick
// inside the stream yield (segments poll once per covered tick, keeping
// the poll count of the per-tick engine), so a cancelled context (client
// disconnect, job deadline) aborts the simulator mid-run instead of after
// the scenario — the error unwraps to cctx's cause via errors.Is.
// Cancellation only ever aborts; it cannot perturb the float accumulation
// order of a run that completes.
func evaluateScenarioStreaming(cctx context.Context, p *campaignPlan, s Scenario, run *scenarioRun, truths []division.Shares) ([][]Evaluation, error) {
	ctx, fs := p.ctx, p.fs
	replay := models.NewStreamReplay(run.roster, p.newModels(run.label), run.cfg.ReservedTicks(ctx.RunFor))
	defer replay.Release()
	scr := getScoreScratch()
	defer putScoreScratch(scr)
	ts := tickSeries{at: scr.at[:0], power: scr.power[:0]}
	load := models.SegmentLoader(run.cfg, run.roster)
	_, err := machine.StreamSegments(run.cfg, run.procs, ctx.RunFor, func(seg *machine.Segment) error {
		replay.ObserveSegment(load(seg))
		for i := range seg.Powers {
			if err := cctx.Err(); err != nil {
				return err
			}
			ts.at = append(ts.at, seg.At(i))
			ts.power = append(ts.power, seg.Powers[i])
		}
		return nil
	})
	scr.at, scr.power = ts.at, ts.power
	if err != nil {
		return nil, fmt.Errorf("protocol: scenario %q: %w", run.label, err)
	}
	out := make([][]Evaluation, len(fs))
	// The scoring window depends on the model only through its OK vector,
	// and most models estimate every tick — so windows are computed once
	// per distinct OK vector, not once per model.
	var windows []scoringWindow
	for m, f := range fs {
		est := replay.Estimates(m)
		from, to := windowFor(ctx, ts, est.OK, scr, &windows)
		evs, err := scoreEstimatesWindow(ctx, s, run.label, ts, f.Name, est, truths, scr, from, to)
		if err != nil {
			return nil, err
		}
		out[m] = evs
	}
	return out, nil
}

// scoringWindow memoizes one distinct OK vector's stable scoring window
// within a scenario. The ok slice is aliased, not copied: estimate matrices
// are immutable once scoring starts.
type scoringWindow struct {
	ok       []bool
	from, to time.Duration
}

// windowFor resolves the scoring window for ok, reusing a previously
// computed window when an identical OK vector was already seen.
func windowFor(ctx Context, ts tickSeries, ok []bool, scr *scoreScratch, windows *[]scoringWindow) (time.Duration, time.Duration) {
	for _, w := range *windows {
		if boolsEqual(w.ok, ok) {
			return w.from, w.to
		}
	}
	from, to := stableScoringWindow(ctx, ts, ok, scr.scored)
	*windows = append(*windows, scoringWindow{ok: ok, from: from, to: to})
	return from, to
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EvaluateScenarioStreaming scores every factory over one scenario on the
// fused streaming pipeline — the per-scenario unit the campaign service
// shards jobs into. The returned slice is index-aligned with fs, and each
// row is bit-identical to the corresponding row a whole-campaign
// EvaluateModelsStreaming call would produce: the simulation and model
// seeds derive from the scenario label alone, so per-scenario results do
// not depend on which other scenarios run, in what order, or on which
// process. It compiles a one-shot campaign plan, whose evaluation-digest
// key equals the campaign plan's, so both share cached digests. cctx
// cancellation aborts the simulator mid-run.
func EvaluateScenarioStreaming(cctx context.Context, ctx Context, s Scenario, fs []models.Factory, baselines map[string]division.Baseline, obj Objective, r0 units.Watts) ([]Evaluation, error) {
	return newCampaignPlan(ctx, fs, nil).evaluate(cctx, s, baselines, obj, r0)
}

// evaluate is EvaluateScenarioStreaming under the plan.
func (p *campaignPlan) evaluate(cctx context.Context, s Scenario, baselines map[string]division.Baseline, obj Objective, r0 units.Watts) ([]Evaluation, error) {
	done := observeScenario()
	truths, err := scenarioTruths(s, baselines, []Objective{obj}, r0)
	if err != nil {
		return nil, err
	}
	rows, err := evaluateScenarioCached(cctx, p, s, truths)
	if err != nil {
		return nil, err
	}
	out := make([]Evaluation, len(rows))
	for m := range rows {
		out[m] = rows[m][0]
	}
	done()
	return out, nil
}

// EvaluateModelsStreaming runs the full protocol for several models over
// one scenario list. The factories function receives the phase 1
// baselines (from the byte-capped summary cache) so that models needing
// them (F2) can be constructed. Each scenario is then simulated exactly
// once per campaign — regardless of cache state or model count, because
// all models ride the same stream — and scored by every model. Peak memory
// per worker is the estimate matrices of one scenario, never a whole run,
// which is what lets combinatorial sweeps scale.
// Scenarios run concurrently across the worker pool; results are
// deterministic regardless of scheduling.
func EvaluateModelsStreaming(ctx Context, scenarios []Scenario, factories func(map[string]division.Baseline) []models.Factory, obj Objective, r0 units.Watts) (map[string][]Evaluation, error) {
	return EvaluateModelsStreamingCtx(context.Background(), ctx, scenarios, factories, obj, r0)
}

// EvaluateModelsStreamingCtx is EvaluateModelsStreaming with a cancellation
// seam: when cctx is cancelled (client disconnect, deadline) the campaign
// stops mid-run — in-flight scenarios abort their simulators at the next
// tick, the worker pool drains, and the shared worker budget returns to
// full. The error then unwraps to cctx's cause. An uncancelled cctx changes
// nothing: results are bit-identical to EvaluateModelsStreaming.
func EvaluateModelsStreamingCtx(cctx context.Context, ctx Context, scenarios []Scenario, factories func(map[string]division.Baseline) []models.Factory, obj Objective, r0 units.Watts) (map[string][]Evaluation, error) {
	baselines, err := MeasureBaselinesParallelCtx(cctx, ctx, AppsOf(scenarios))
	if err != nil {
		return nil, err
	}
	fs := factories(baselines)
	plan := newCampaignPlan(ctx, fs, scenarios)
	perScenario := make([][]Evaluation, len(scenarios))
	err = forEachIndexed(len(scenarios), func(i int) error {
		row, err := plan.evaluate(cctx, scenarios[i], baselines, obj, r0)
		perScenario[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]Evaluation{}
	for m, f := range fs {
		evs := make([]Evaluation, len(scenarios))
		for i := range scenarios {
			evs[i] = perScenario[i][m]
		}
		out[f.Name] = evs
	}
	return out, nil
}
