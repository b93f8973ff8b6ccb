package experiments

import (
	"fmt"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
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
