package models

import (
	"slices"

	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// Observe is the per-tick reference the replay equivalence tests compare
// segment observation against: it feeds one tick to every model through
// its per-tick entry point — ObserveInto for dense models, Observe
// otherwise — appending one column to each model's estimate matrix.
// Production code observes only segments (ObserveSegment).
func (r *StreamReplay) Observe(t Tick) {
	for m, model := range r.models {
		d := r.ests[m]
		col := extendColumn(d, r.n)
		ok := extendFlags(d, 1)
		if dm, isDense := model.(DenseModel); isDense {
			ok[0] = dm.ObserveInto(t, col)
			continue
		}
		est := model.Observe(t)
		if est == nil {
			continue
		}
		ok[0] = true
		for slot, id := range r.roster.IDs() {
			col[slot] = est[id]
		}
	}
}

// observeRun feeds every tick of a simulated run to m through Observe and
// returns the per-tick estimates, index-aligned with run.Ticks; ticks
// where the model produced no estimate hold a nil map.
func observeRun(m Model, run *machine.Run) []map[string]units.Watts {
	ticks := denseTicks(run)
	out := make([]map[string]units.Watts, len(ticks))
	for i, t := range ticks {
		out[i] = m.Observe(t)
	}
	return out
}

// churnTicks re-expresses ticks over a roster of each tick's present IDs,
// as a producer whose process set churns builds it (the live meter): the
// roster is rebuilt only when the present set changes, and a tick with no
// present process goes over one shared empty roster, leaving the last
// roster alone.
func churnTicks(ticks []Tick) []Tick {
	empty := machine.NewRoster(nil)
	var roster *machine.Roster
	out := make([]Tick, len(ticks))
	for i, t := range ticks {
		var ids []string
		var col []ProcSample
		for slot, p := range t.Samples {
			if p.Present() {
				ids = append(ids, t.Roster.ID(slot))
				col = append(col, p)
			}
		}
		t.Roster, t.Samples = empty, col
		if len(ids) > 0 {
			if !slices.Equal(roster.IDs(), ids) {
				roster = machine.NewRoster(ids)
			}
			t.Roster = roster
		}
		out[i] = t
	}
	return out
}

// denseTicks converts a simulated run into dense per-tick model inputs
// sharing the run's roster, index-aligned with run.Ticks: the tick stream
// the per-tick reference tests feed one tick at a time.
func denseTicks(run *machine.Run) []Tick {
	logical := run.Config.Spec.Topology.LogicalCPUs()
	n := run.Roster.Len()
	ticks := make([]Tick, len(run.Ticks))
	for i, rec := range run.Ticks {
		col := make([]ProcSample, n)
		for s := range col {
			col[s] = SampleOf(&rec.Procs[s])
		}
		ticks[i] = Tick{
			At:           rec.At,
			Interval:     run.Tick(),
			MachinePower: rec.Power,
			LogicalCPUs:  logical,
			Freq:         rec.Freq,
			Roster:       run.Roster,
			Samples:      col,
		}
	}
	return ticks
}

// replayDense feeds a run's dense ticks to m one at a time and returns the
// accumulated estimate matrix.
func replayDense(m Model, run *machine.Run, ticks []Tick) *DenseEstimates {
	r := NewStreamReplay(run.Roster, []Model{m}, len(ticks))
	for _, t := range ticks {
		r.Observe(t)
	}
	return r.Estimates(0)
}
