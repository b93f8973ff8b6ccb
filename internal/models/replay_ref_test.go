package models

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
