package models

import (
	"sort"

	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// F2 implements the paper's proposed ratio-preserving model family (F2):
// the estimated consumption of two applications running in parallel keeps
// the same ratio as their isolated executions. It divides each tick's
// measured machine power in proportion to per-application isolated active
// power baselines (the A_{P_i} of the protocol's phase 1), scaled by each
// process's current CPU time so that phase changes inside an application
// still register.
//
// The paper suggests exactly this construction as future work: "a model
// that estimates the consumption of each application individually as
// isolated at the machine level, and uses these estimations to compute a
// ratio to allocate the actual consumption to each application". Here the
// isolated estimates come from protocol phase 1 instead of a per-process
// model, making F2 the reference implementation of the family rather than
// a deployable meter.
type F2 struct {
	// baseline maps process ID to its isolated active power per fully
	// busy core (A_{P_i} / cores used when isolated).
	baseline map[string]units.Watts
	// mean is the mean baseline, the weight of processes measured without
	// one. Computed once at construction: the baselines are fixed for the
	// model's lifetime, and summing in sorted ID order keeps the value
	// bit-reproducible.
	mean float64

	ticks *tickAdapter
	// roster/perSlot cache the baseline lookup in roster-slot order;
	// rebuilt only when the roster changes.
	roster  *machine.Roster
	perSlot []float64
}

// NewF2 returns an F2-model factory with the given per-process isolated
// active power baselines, expressed per core of CPU usage.
func NewF2(baselinePerCore map[string]units.Watts) Factory {
	b := make(map[string]units.Watts, len(baselinePerCore))
	for id, w := range baselinePerCore {
		b[id] = w
	}
	mean := 1.0
	ids := make([]string, 0, len(b))
	for id := range b {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(b) > 0 {
		var sum units.Watts
		for _, id := range ids {
			sum += b[id]
		}
		mean = float64(sum) / float64(len(b))
	}
	return Factory{
		Name: "f2",
		New:  func(int64) Model { return &F2{baseline: b, mean: mean} },
	}
}

// per returns a process's baseline weight (the mean when it has none).
func (m *F2) per(id string) float64 {
	if w, ok := m.baseline[id]; ok {
		return float64(w)
	}
	return m.mean
}

// Name returns "f2".
func (m *F2) Name() string { return "f2" }

// Observe divides one tick as a one-tick segment.
func (m *F2) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto divides one dense tick as a one-tick segment.
func (m *F2) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto divides every tick by the segment's constant
// baseline × CPU-usage shares. Processes without a baseline weigh in with
// the mean baseline, so the model degrades to CPU-time shares rather than
// ignoring them.
func (m *F2) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	if m.roster != seg.Roster {
		m.roster = seg.Roster
		ids := seg.Roster.IDs()
		m.perSlot = sized(m.perSlot, len(ids))
		for i, id := range ids {
			m.perSlot[i] = m.per(id)
		}
	}
	n := len(seg.Samples)
	w := out[:n]
	any := false
	for i, p := range seg.Samples {
		w[i] = 0
		if !p.Present() {
			continue
		}
		any = true
		w[i] = units.Watts(m.perSlot[i] * p.CPUTime.Seconds())
	}
	if !any {
		clear(w)
		for k := range ok {
			ok[k] = false
		}
		return
	}
	shareOutSegment(seg.Powers, w, out, ok)
}

// Oracle divides power by the simulator's ground-truth per-process active
// power. It is the perfect member of family (F1): active and residual
// consumption split by the true active ratio. Only meaningful on simulated
// input; on real sensor input (TrueActive == 0) it returns nil.
type Oracle struct {
	ticks *tickAdapter
}

// NewOracle returns an Oracle-model factory.
func NewOracle() Factory {
	return Factory{Name: "oracle", New: func(int64) Model { return &Oracle{} }}
}

// Name returns "oracle".
func (m *Oracle) Name() string { return "oracle" }

// Observe divides one tick as a one-tick segment.
func (m *Oracle) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto divides one dense tick as a one-tick segment.
func (m *Oracle) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto divides every tick by the segment's constant
// true-active shares.
func (m *Oracle) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	w := out[:n]
	for i, p := range seg.Samples {
		w[i] = p.TrueActive
	}
	shareOutSegment(seg.Powers, w, out, ok)
}
