package protocol

import (
	"context"
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// TimelineApp is an application with a lifetime inside a dynamic scenario —
// the arrivals and departures of the paper's Fig 11 ("production
// environment, contexts often change due to the arrival and departure of
// applications").
type TimelineApp struct {
	App AppSpec
	// Start is the arrival time; Stop (0 = scenario end) the departure.
	Start, Stop time.Duration
}

// TimelineResult scores a model over a dynamic scenario.
type TimelineResult struct {
	// AE is the Eq 5 absolute error over every scored tick, with the
	// objective shares recomputed per tick over the applications present.
	AE float64
	// Coverage is the fraction of busy ticks (some application running)
	// for which the model produced an estimate — context-change
	// recalibration (PowerAPI's learning drops) lowers it.
	Coverage float64
	// BusyTicks counts ticks with at least one application running.
	BusyTicks int
	// ScoredTicks counts ticks that entered the Eq 5 average.
	ScoredTicks int
}

// EvaluateTimeline runs a dynamic scenario and scores the model against a
// per-tick objective: at each tick, Equation 3 shares are computed over
// the applications actually running (from their phase 1 baselines, looked
// up by application type as MeasureBaselines keys them). No stable-window
// selection applies — dynamic contexts are scored whole, since transitions
// are exactly what is under test.
//
// The timeline is a one-model traffic scenario whose lifetimes come from
// Start/Stop, labelled "timeline: <IDs in input order>": it streams and
// scores on the traffic pipeline, and its simulator and model seeds derive
// from that label.
func EvaluateTimeline(ctx Context, apps []TimelineApp, factory models.Factory, baselines map[string]division.Baseline, maxDur time.Duration) (TimelineResult, error) {
	if len(apps) == 0 {
		return TimelineResult{}, fmt.Errorf("protocol: empty timeline")
	}
	s := Scenario{Apps: make([]AppSpec, len(apps))}
	label := "timeline:"
	for i, ta := range apps {
		s.Apps[i] = ta.App
		s.Apps[i].StartAt, s.Apps[i].StopAt = ta.Start, ta.Stop
		label += " " + ta.App.ID
	}
	p := newCampaignPlan(ctx, []models.Factory{factory})
	run := p.run(s, label, newSeedHash(ctx.Seed).part("timeline"))
	slotBase, err := trafficSlotBaselines(s, run.roster.IDs(), baselines)
	if err != nil {
		return TimelineResult{}, err
	}
	view, replay, err := p.streamTraffic(context.Background(), &run, maxDur)
	if err != nil {
		return TimelineResult{}, err
	}
	defer replay.Release()
	defer view.release()
	truths, busy := trafficTruths(view, slotBase)
	ev, err := scoreTrafficModel(s, factory.Name, view, truths, busy, replay.Estimates(0))
	return TimelineResult{AE: ev.AE, Coverage: ev.Coverage, BusyTicks: ev.BusyTicks, ScoredTicks: ev.ScoredTicks}, err
}
