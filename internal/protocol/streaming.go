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
// estimate matrices and the power/time scoring view, both pooled. Pair
// runs are never materialized and never cached, which is where the memory
// goes: the byte-capped baseline tier (cache.go) keeps only phase 1's
// four-number baselines, and a scored scenario is written once, straight
// into the caller's rows (rowView). The protocol scores each scenario
// once, so nothing of phases 2–3 is memoized.
//
// Every pair entry point — EvaluatePair, EvaluateCampaign,
// EvaluateModelsStreaming and the per-scenario unit the campaign service
// shards jobs into — runs through evaluateScenarioStreaming. The golden
// corpus (internal/experiments/testdata) pins their tables bit for bit,
// and the map-reference test pins the columnar scoring against the
// original per-tick map pipeline.

// evaluateScenarioStreaming runs phases 2–3 for one pair scenario in a
// single simulator pass, scoring every factory against every truth into
// v: the scenario is simulated exactly once and all models observe the
// stream as it runs.
//
// cctx is the cancellation seam: it is polled once per simulated tick
// inside the stream yield (segments poll once per covered tick, keeping
// the poll count of the per-tick engine), so a cancelled context (client
// disconnect, job deadline) aborts the simulator mid-run instead of after
// the scenario — the error unwraps to cctx's cause via errors.Is.
// Cancellation only ever aborts; it cannot perturb the float accumulation
// order of a run that completes.
func evaluateScenarioStreaming(cctx context.Context, p *campaignPlan, s Scenario, truths []division.Shares, v rowView) error {
	scr := getScoreScratch()
	defer putScoreScratch(scr)
	run := p.pairRun(s)
	replay, ts, err := p.streamPair(cctx, &run, scr)
	if err != nil {
		return err
	}
	defer replay.Release()
	return p.scorePair(s, &run, ts, replay, truths, scr, v)
}

// streamPair simulates the scenario segment by segment
// (machine.StreamSegments) while every factory's model observes each
// segment through StreamReplay.ObserveSegment, and collects the scoring
// view into scr. The caller releases the replay.
func (p *campaignPlan) streamPair(cctx context.Context, run *scenarioRun, scr *scoreScratch) (*models.StreamReplay, tickSeries, error) {
	ctx := p.ctx
	replay := models.NewStreamReplay(run.roster, p.newModels(run.label), run.cfg.ReservedTicks(ctx.RunFor))
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
		replay.Release()
		return nil, tickSeries{}, fmt.Errorf("protocol: scenario %q: %w", run.label, err)
	}
	return replay, ts, nil
}

// scorePair scores every factory's estimates against every truth into
// the factory's rows of v.
func (p *campaignPlan) scorePair(s Scenario, run *scenarioRun, ts tickSeries, replay *models.StreamReplay, truths []division.Shares, scr *scoreScratch, v rowView) error {
	rosterIDs := run.roster.IDs()
	slots := len(rosterIDs)
	scr.truthVecs = resize(scr.truthVecs, len(truths)*slots)
	for o, truth := range truths {
		truth.VectorInto(scr.truthVecs[o*slots:(o+1)*slots], rosterIDs)
	}
	// The scoring window depends on the model only through its OK vector,
	// and most models estimate every tick — so windows are computed once
	// per distinct OK vector, not once per model. The memo aliases this
	// replay's OK vectors, so it is emptied before the scratch is reused.
	defer func() {
		clear(scr.windows)
		scr.windows = scr.windows[:0]
	}()
	for m, f := range p.fs {
		est := replay.Estimates(m)
		from, to := windowFor(p.ctx, ts, est.OK, scr)
		if err := scoreEstimatesWindow(s, run.label, f.Name, ts, est, scr, from, to, truths, v.factory(m, len(truths))); err != nil {
			return err
		}
	}
	return nil
}

// scoringWindow memoizes one distinct OK vector's stable scoring window
// within a scenario. The ok slice is aliased, not copied: estimate matrices
// are immutable once scoring starts.
type scoringWindow struct {
	ok       []bool
	from, to time.Duration
}

// windowFor resolves the scoring window for ok, reusing a window already
// computed for an identical OK vector in scr.windows.
func windowFor(ctx Context, ts tickSeries, ok []bool, scr *scoreScratch) (time.Duration, time.Duration) {
	for _, w := range scr.windows {
		if boolsEqual(w.ok, ok) {
			return w.from, w.to
		}
	}
	from, to := stableScoringWindow(ctx, ts, ok, scr.scored)
	scr.windows = append(scr.windows, scoringWindow{ok: ok, from: from, to: to})
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
// process. It compiles a one-shot campaign plan. cctx cancellation aborts
// the simulator mid-run.
func EvaluateScenarioStreaming(cctx context.Context, ctx Context, s Scenario, fs []models.Factory, baselines map[string]division.Baseline, obj Objective, r0 units.Watts) ([]Evaluation, error) {
	out := make([]Evaluation, len(fs))
	if err := newCampaignPlan(ctx, fs).evaluate(cctx, s, baselines, obj, r0, rowView{rows: out, stride: 1}); err != nil {
		return nil, err
	}
	return out, nil
}

// evaluate is EvaluateScenarioStreaming under the plan, writing factory
// m's row to v.factory(m, 1)[0].
func (p *campaignPlan) evaluate(cctx context.Context, s Scenario, baselines map[string]division.Baseline, obj Objective, r0 units.Watts, v rowView) error {
	done := observeScenario()
	truths, err := scenarioTruths(s, baselines, []Objective{obj}, r0)
	if err != nil {
		return err
	}
	if err := evaluateScenarioStreaming(cctx, p, s, truths, v); err != nil {
		return err
	}
	done()
	return nil
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
	plan := newCampaignPlan(ctx, fs)
	// Every model's column is allocated up front, end to end in one slab;
	// each scenario writes its rows straight into them.
	n := len(scenarios)
	slab := make([]Evaluation, len(fs)*n)
	err = forEachIndexed(n, func(i int) error {
		return plan.evaluate(cctx, scenarios[i], baselines, obj, r0, rowView{rows: slab, at: i, stride: n})
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Evaluation, len(fs))
	for m, f := range fs {
		out[f.Name] = slab[m*n : (m+1)*n : (m+1)*n]
	}
	return out, nil
}
