package models

import "powerdiv/internal/machine"

// Observe is the per-tick reference the replay equivalence tests compare
// segment observation against: it feeds one tick to every model through
// its per-tick entry point — ObserveInto for dense models, Observe on the
// map view otherwise — appending one column to each model's estimate
// matrix. Production code observes only segments (ObserveSegment).
func (r *StreamReplay) Observe(t Tick) {
	var procs map[string]ProcSample
	for m, model := range r.models {
		d := r.ests[m]
		col := extendColumn(d, r.n)
		ok := extendFlags(d, 1)
		if dm, isDense := model.(DenseModel); isDense && t.Samples != nil {
			ok[0] = dm.ObserveInto(t, col)
			continue
		}
		if procs == nil {
			procs = t.ProcsView()
		}
		mt := t
		mt.Procs = procs
		est := model.Observe(mt)
		if est == nil {
			continue
		}
		ok[0] = true
		for slot, id := range r.roster.IDs() {
			col[slot] = est[id]
		}
	}
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
			pt := rec.Procs[s]
			col[s] = ProcSample{CPUTime: pt.CPUTime, Counters: pt.Counters, Threads: pt.Threads, TrueActive: pt.ActivePower}
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
