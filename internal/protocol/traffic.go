package protocol

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
)

// This file is phases 2–3 of traffic and timeline campaigns: timed
// rosters whose instances arrive (AppSpec.StartAt), burst and exit
// (StopAt) while the scenario runs — the paper's "production context"
// shape that the static pair campaigns cannot reach, and its Fig 11
// timelines. The objective is per tick, over the instances actually
// present: churn transitions are exactly what is under test, so no
// stable-window selection applies. The two kinds differ only in how a
// scenario is labelled and seeded (CampaignKind).
//
// Each scenario is one fused simulate → observe pass with
// O(ticks-in-flight) simulator state, accumulating exactly the scoring view
// (per-tick power + one presence column per presence run) the objective
// needs: presence changes only at segment boundaries, so the Eq 3 truth is
// computed once per run and Eq 5 is one running sum per model.
// The golden corpus (internal/experiments/testdata) pins the tables.

// TrafficEvaluation is the scored outcome of one model on one traffic
// scenario.
type TrafficEvaluation struct {
	Scenario Scenario
	Model    string
	// AE is the Eq 5 absolute error with per-tick objective shares over the
	// instances present at each tick.
	AE float64
	// Coverage is the fraction of busy ticks the model estimated —
	// membership churn forces recalibration (PowerAPI's learning drops),
	// which lowers it.
	Coverage float64
	// BusyTicks counts ticks with at least one instance running;
	// ScoredTicks those that entered the Eq 5 average.
	BusyTicks   int
	ScoredTicks int
}

// TrafficSummary aggregates one model over a traffic campaign.
type TrafficSummary struct {
	Model  string
	MeanAE float64
	MaxAE  float64
	// WorstScenario is the scenario achieving MaxAE.
	WorstScenario string
	// MeanCoverage is the mean per-scenario estimate coverage.
	MeanCoverage float64
	Evaluations  []TrafficEvaluation
}

// SummarizeTraffic aggregates per-scenario traffic evaluations.
func SummarizeTraffic(model string, evs []TrafficEvaluation) TrafficSummary {
	s := TrafficSummary{Model: model, Evaluations: evs}
	for _, ev := range evs {
		s.MeanAE += ev.AE
		s.MeanCoverage += ev.Coverage
		if ev.AE > s.MaxAE {
			s.MaxAE = ev.AE
			s.WorstScenario = ev.Scenario.Label()
		}
	}
	if len(evs) > 0 {
		s.MeanAE /= float64(len(evs))
		s.MeanCoverage /= float64(len(evs))
	}
	return s
}

// trafficView is the scoring view a traffic scenario accumulates: the
// per-tick machine power plus one presence column per presence run — a
// maximal stretch of consecutive segments with the same instances present.
// Presence only changes at segment boundaries, so the view holds a handful
// of columns however long the window, and the objective is computed once
// per run rather than once per tick.
type trafficView struct {
	power []units.Watts
	// runStart[r] is run r's first tick; run r ends where run r+1 starts
	// (the last run at len(power)).
	runStart []int
	// presence holds run r's column at [r*n, (r+1)*n).
	presence []bool
	n        int
}

// trafficViews pools scoring views across scenarios: a view's slices keep
// their capacity, so a worker's next scenario of similar length appends
// into them without allocating.
var trafficViews = sync.Pool{New: func() any { return new(trafficView) }}

// newTrafficView returns an empty pooled view for n roster slots with room
// for capTicks ticks of power. The caller hands it back with release.
func newTrafficView(n, capTicks int) *trafficView {
	v := trafficViews.Get().(*trafficView)
	v.power = slices.Grow(v.power[:0], capTicks)
	v.runStart = v.runStart[:0]
	v.presence = v.presence[:0]
	v.n = n
	return v
}

// release hands the view back to the pool; nothing may use it after.
func (v *trafficView) release() { trafficViews.Put(v) }

// observeSegment appends a constant segment's scoring state: its per-tick
// power, and its presence column when that differs from the current run's.
func (v *trafficView) observeSegment(seg *machine.Segment) {
	procs := seg.Rec.Procs
	same := len(v.runStart) > 0
	if same {
		last := v.column(len(v.runStart) - 1)
		for slot := range last {
			if last[slot] != procs[slot].Present() {
				same = false
				break
			}
		}
	}
	if !same {
		v.runStart = append(v.runStart, len(v.power))
		for slot := 0; slot < v.n; slot++ {
			v.presence = append(v.presence, procs[slot].Present())
		}
	}
	v.power = append(v.power, seg.Powers...)
}

// column returns run r's presence column.
func (v *trafficView) column(r int) []bool { return v.presence[r*v.n : (r+1)*v.n] }

// runEnd returns the tick one past run r's last.
func (v *trafficView) runEnd(r int) int {
	if r+1 < len(v.runStart) {
		return v.runStart[r+1]
	}
	return len(v.power)
}

// trafficSlotBaselines resolves each roster slot's baseline: the shared
// baseline of the instance's application type.
func trafficSlotBaselines(s Scenario, rosterIDs []string, baselines map[string]division.Baseline) ([]division.Baseline, error) {
	out := make([]division.Baseline, len(rosterIDs))
	for slot, id := range rosterIDs {
		// Rosters are small: a linear scan beats building a map per
		// scenario.
		i := 0
		for i < len(s.Apps) && s.Apps[i].ID != id {
			i++
		}
		if i == len(s.Apps) {
			return nil, fmt.Errorf("protocol: roster instance %s not in scenario %q", id, s.Label())
		}
		b, ok := baselines[s.Apps[i].baselineID()]
		if !ok {
			return nil, fmt.Errorf("protocol: no baseline for %s (run phase 1 first)", s.Apps[i].baselineID())
		}
		out[slot] = b
	}
	return out, nil
}

// trafficTruths computes the objective: Equation 3 shares over the
// instances present, in roster-slot order (AbsentShare marks slots outside
// the objective), once per presence run. truths[r] is nil for idle or
// degenerate runs; busy counts ticks with at least one instance present.
// The truth is model-independent, so each scenario computes it once and
// every model scores against the same vectors; all runs share one slab.
func trafficTruths(view *trafficView, slotBase []division.Baseline) (truths [][]float64, busy int) {
	runs, n := len(view.runStart), view.n
	truths = make([][]float64, runs)
	slab := make([]float64, runs*n)
	for r := range truths {
		col := view.column(r)
		if !slices.Contains(col, true) {
			continue
		}
		busy += view.runEnd(r) - view.runStart[r]
		truths[r] = division.TruthVectorInto(slab[r*n:(r+1)*n], slotBase, col)
	}
	return truths, busy
}

// scoreTrafficModel is the scoring tail for one model: Eq 5 over the
// ticks the model estimated, against each run's objective shares, summed
// tick by tick into one running total, written into ev.
func scoreTrafficModel(s Scenario, modelName string, view *trafficView, truths [][]float64, busy int, est *models.DenseEstimates, ev *TrafficEvaluation) error {
	*ev = TrafficEvaluation{Scenario: s, Model: modelName, BusyTicks: busy}
	if busy == 0 {
		return fmt.Errorf("protocol: traffic scenario %q never ran any instance", s.Label())
	}
	var acc division.ErrorSum
	for r, truth := range truths {
		if truth == nil {
			continue
		}
		for i, end := view.runStart[r], view.runEnd(r); i < end; i++ {
			if !est.OK[i] {
				continue
			}
			ev.ScoredTicks++
			acc.Add(est.Row(i), view.power[i], truth)
		}
	}
	ev.Coverage = float64(ev.ScoredTicks) / float64(busy)
	if ev.ScoredTicks > 0 {
		ae, err := acc.Mean()
		if err != nil {
			return fmt.Errorf("protocol: traffic scenario %q: %w", s.Label(), err)
		}
		ev.AE = ae
	}
	return nil
}

// scoreTraffic is the scenario's scoring tail: the objective once per
// presence run, then every model's Eq 5 into scenario i's rows of res. Its
// allocations do not depend on the window length.
func (p *campaignPlan) scoreTraffic(s Scenario, view *trafficView, slotBase []division.Baseline, replay *models.StreamReplay, res Result, i int) error {
	truths, busy := trafficTruths(view, slotBase)
	for m, f := range p.fs {
		if err := scoreTrafficModel(s, f.Name, view, truths, busy, replay.Estimates(m), res.trafficRow(m, i)); err != nil {
			return err
		}
	}
	return nil
}

// evaluateTraffic runs phases 2–3 for traffic or timeline scenario i: one
// fused simulator pass — the scenario is simulated exactly once, all
// models observe the stream segment by segment, and the run is never
// materialized or cached. cctx cancellation aborts the simulator mid-run
// (polled once per tick); the error then unwraps to cctx's cause.
func (p *campaignPlan) evaluateTraffic(cctx context.Context, s Scenario, res Result, i int) error {
	run := p.run(s)
	slotBase, err := trafficSlotBaselines(s, run.roster.IDs(), p.baselines)
	if err != nil {
		return err
	}
	view, replay, err := p.streamTraffic(cctx, &run)
	if err != nil {
		return err
	}
	defer replay.Release()
	defer view.release()
	return p.scoreTraffic(s, view, slotBase, replay, res, i)
}

// streamTraffic simulates the run once while every model observes it
// segment by segment, accumulating the scoring view alongside. The caller
// releases the view and the replay.
func (p *campaignPlan) streamTraffic(cctx context.Context, run *scenarioRun) (*trafficView, *models.StreamReplay, error) {
	reserve := run.cfg.ReservedTicks(p.ctx.RunFor)
	replay := models.NewStreamReplay(run.roster, p.newModels(run.label), reserve)
	view := newTrafficView(run.roster.Len(), reserve)
	load := models.SegmentLoader(run.cfg, run.roster)
	_, err := machine.StreamSegments(run.cfg, run.procs, p.ctx.RunFor, func(seg *machine.Segment) error {
		// One poll per covered tick keeps the cancellation granularity (and
		// the deterministic poll count the ctx tests pin) of the per-tick
		// engine.
		for range seg.Powers {
			if err := cctx.Err(); err != nil {
				return err
			}
		}
		replay.ObserveSegment(load(seg))
		view.observeSegment(seg)
		return nil
	})
	if err != nil {
		replay.Release()
		view.release()
		return nil, nil, fmt.Errorf("protocol: traffic scenario %q: %w", run.label, err)
	}
	return view, replay, nil
}
