package protocol

import (
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
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
// the applications actually running (from their phase 1 baselines). No
// stable-window selection applies — dynamic contexts are scored whole,
// since transitions are exactly what is under test.
func EvaluateTimeline(ctx Context, apps []TimelineApp, factory models.Factory, baselines map[string]division.Baseline, maxDur time.Duration) (TimelineResult, error) {
	var res TimelineResult
	if len(apps) == 0 {
		return res, fmt.Errorf("protocol: empty timeline")
	}
	label := "timeline:"
	procs := make([]machine.Proc, len(apps))
	for i, ta := range apps {
		if _, ok := baselines[ta.App.ID]; !ok {
			return res, fmt.Errorf("protocol: no baseline for %s", ta.App.ID)
		}
		p := ta.App.proc()
		p.Start, p.Stop = ta.Start, ta.Stop
		procs[i] = p
		label += " " + ta.App.ID
	}
	cfg := ctx.Machine
	cfg.Seed = deriveSeed(ctx.Seed, "timeline", label)
	run, err := ctx.memo().simulateCached(cfg, procs, maxDur)
	if err != nil {
		return res, fmt.Errorf("protocol: timeline: %w", err)
	}
	model := factory.New(deriveSeed(ctx.Seed, "model", factory.Name, label))
	est := models.ReplayDense(model, models.RunTicksDense(run))

	rosterIDs := run.Roster.IDs()
	n := len(rosterIDs)
	slotBase := make([]division.Baseline, n)
	for slot, id := range rosterIDs {
		slotBase[slot] = baselines[id]
	}
	// The per-tick objective covers exactly the applications present. It
	// only changes when the presence column does, so the truth vector is
	// recomputed at those ticks alone; Eq 5 is one running sum.
	present := make([]bool, n)
	buf := make([]float64, n)
	var truth []float64 // nil until some application runs
	var acc division.ErrorSum
	for i := range run.Ticks {
		rec := &run.Ticks[i]
		busy, changed := false, false
		for slot := range present {
			p := rec.Procs[slot].Present()
			busy = busy || p
			changed = changed || p != present[slot]
			present[slot] = p
		}
		if changed {
			truth = division.TruthVectorInto(buf, slotBase, present)
		}
		if !busy {
			continue
		}
		res.BusyTicks++
		if !est.OK[i] || truth == nil {
			continue
		}
		res.ScoredTicks++
		acc.Add(est.Row(i), rec.Power, truth)
	}
	if res.BusyTicks == 0 {
		return res, fmt.Errorf("protocol: timeline never ran any application")
	}
	res.Coverage = float64(res.ScoredTicks) / float64(res.BusyTicks)
	if res.ScoredTicks > 0 {
		ae, err := acc.Mean()
		if err != nil {
			return res, err
		}
		res.AE = ae
	}
	return res, nil
}
