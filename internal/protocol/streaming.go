package protocol

import (
	"context"
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// This file is phases 2–3 of a pair campaign: simulate → observe → score
// in one pass per scenario, with O(ticks-in-flight) simulator state. The
// models observe each segment as the simulator produces it, so per
// scenario the only O(ticks) state kept is what scoring needs anyway — the
// per-model estimate matrices and the power/time scoring view, both
// pooled. Pair runs are never materialized and never cached, which is
// where the memory goes: the byte-capped baseline tier (cache.go) keeps
// only phase 1's four-number baselines, and a scored scenario is written
// once, straight into the campaign's Result. The protocol scores each
// scenario once, so nothing of phases 2–3 is memoized.
//
// The golden corpus (internal/experiments/testdata) pins the tables bit
// for bit, and the map-reference test pins the columnar scoring against
// the original per-tick map pipeline.

// evaluate runs phases 2–3 for pair scenario i in a single simulator pass,
// scoring every factory against every objective into res: the scenario is
// simulated exactly once and all models observe the stream as it runs.
//
// cctx is polled once per simulated tick inside the stream yield (segments
// poll once per covered tick, keeping the poll count of the per-tick
// engine), so a cancelled context aborts the simulator mid-run instead of
// after the scenario — the error unwraps to cctx's cause via errors.Is.
// Cancellation only ever aborts; it cannot perturb the float accumulation
// order of a run that completes.
func (p *campaignPlan) evaluate(cctx context.Context, s Scenario, res Result, i int) error {
	truths, err := scenarioTruths(s, p.baselines, p.objectives, p.r0)
	if err != nil {
		return err
	}
	scr := getScoreScratch()
	defer putScoreScratch(scr)
	run := p.run(s)
	replay, ts, err := p.streamPair(cctx, &run, scr)
	if err != nil {
		return err
	}
	defer replay.Release()
	return p.scorePair(s, &run, ts, replay, truths, scr, res, i)
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
// scenario i's rows of res.
func (p *campaignPlan) scorePair(s Scenario, run *scenarioRun, ts tickSeries, replay *models.StreamReplay, truths []division.Shares, scr *scoreScratch, res Result, i int) error {
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
		if err := scoreEstimatesWindow(s, run.label, f.Name, ts, est, scr, from, to, truths, res, m, i); err != nil {
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
