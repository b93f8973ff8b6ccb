package experiments

import (
	"context"
	"fmt"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/trace"
	"powerdiv/internal/workload"
)

// ContextResult is the Fig 11 illustration: three identical, stable
// applications started and stopped at different times, divided by an
// F1-family model. Although each application's behaviour never changes,
// its attributed power moves every time the context (the set of
// co-runners) changes.
type ContextResult struct {
	Machine string
	Model   string
	// Estimates maps application ID to its attributed power over time.
	Estimates map[string]*trace.Series
	// MachinePower is the machine trace.
	MachinePower *trace.Series
	// Windows lists the context-change instants (arrivals/departures).
	Windows []time.Duration
}

// AttributionDriftPct quantifies the illustration: for the given
// application, the relative change between its maximum and minimum
// attributed power across context windows (its own behaviour being
// constant, a context-independent division would give 0).
func (r ContextResult) AttributionDriftPct(id string) float64 {
	s, ok := r.Estimates[id]
	if !ok || s.Len() == 0 {
		return 0
	}
	min, max := s.Min(), s.Max()
	if max == 0 {
		return 0
	}
	return (max - min) / max * 100
}

// Table summarises per-application attribution drift.
func (r ContextResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 11 — context-dependent attribution (%s on %s)", r.Model, r.Machine),
		"application", "min W", "max W", "drift %",
	)
	for _, id := range sortedSeriesKeys(r.Estimates) {
		s := r.Estimates[id]
		t.AddRowf(id, s.Min(), s.Max(), r.AttributionDriftPct(id))
	}
	return t
}

func sortedSeriesKeys(m map[string]*trace.Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ContextIllustration reproduces Fig 11: three instances of the same
// stable workload with staggered lifetimes
//
//	P0: [0, 3T)   P1: [T, 2T)   P2: [2T, 3T)
//
// divided by the given model. P0's attributed power changes at every
// arrival/departure despite P0's behaviour being constant.
func ContextIllustration(cfg machine.Config, factory models.Factory, fn string, threads int, window time.Duration, seed int64) (ContextResult, error) {
	res := ContextResult{Machine: cfg.Spec.Name, Model: factory.Name, Estimates: map[string]*trace.Series{}}
	w, ok := workload.StressByName(fn)
	if !ok {
		return res, fmt.Errorf("unknown stress function %q", fn)
	}
	cfg.Seed = seed
	procs := []machine.Proc{
		{ID: "P0", Workload: w, Threads: threads},
		{ID: "P1", Workload: w, Threads: threads, Start: window, Stop: 2 * window},
		{ID: "P2", Workload: w, Threads: threads, Start: 2 * window},
	}
	res.MachinePower = trace.New()
	res.Windows = []time.Duration{window, 2 * window}
	err := replaySegments(cfg, procs, 3*window, factory.New(seed), func(seg *machine.Segment, est *models.DenseEstimates) {
		for i, p := range seg.Powers {
			at := seg.At(i)
			res.MachinePower.Append(at, float64(p))
			k := seg.StartTick + i
			if !est.OK[k] {
				continue
			}
			row := est.Row(k)
			for slot, pt := range seg.Rec.Procs {
				// Absent processes hold a zero column entry; only processes
				// in the tick's context belong on the attribution trace.
				if !pt.Present() {
					continue
				}
				id := est.Roster.ID(slot)
				s, ok := res.Estimates[id]
				if !ok {
					s = trace.New()
					res.Estimates[id] = s
				}
				s.Append(at, float64(row[slot]))
			}
		}
	})
	return res, err
}

// TimelineScore is one model's Eq 5 error and estimate coverage over the
// Fig 11 timeline.
type TimelineScore struct {
	Model        string
	AE, Coverage float64
}

// fig11Timeline scores fs over the Fig 11 timeline — three int64-2
// instances, P1 present from 20 s to 40 s and P2 from 40 s on — as one
// TimelineCampaign: each model's error and coverage under arrivals and
// departures (PowerAPI relearns at every change and loses roughly half its
// coverage).
func fig11Timeline(ctx protocol.Context, fs []models.Factory) ([]TimelineScore, error) {
	var s protocol.Scenario
	for _, id := range []string{"P0", "P1", "P2"} {
		app, err := protocol.StressApp("int64", 2)
		if err != nil {
			return nil, err
		}
		app.ID = id
		s.Apps = append(s.Apps, app)
	}
	s.Apps[1].StartAt, s.Apps[1].StopAt = 20*time.Second, 40*time.Second
	s.Apps[2].StartAt = 40 * time.Second
	baselines, err := protocol.Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		return nil, err
	}
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.TimelineCampaign, Scenarios: []protocol.Scenario{s}, Factories: protocol.FixedFactories(fs...),
		Baselines: baselines, Window: time.Minute,
	})
	if err != nil {
		return nil, err
	}
	out := make([]TimelineScore, len(res.Factories))
	for m, f := range res.Factories {
		r := res.Traffic(m)[0]
		out[m] = TimelineScore{Model: f.Name, AE: r.AE, Coverage: r.Coverage}
	}
	return out, nil
}

// timelineTable renders timeline scores, one row per model.
func timelineTable(title string, rows []TimelineScore) *report.Table {
	t := report.NewTable(title, "model", "AE", "coverage")
	for _, r := range rows {
		t.AddRow(r.Model, report.Percent(r.AE), report.Percent(r.Coverage))
	}
	return t
}
