package models

import "powerdiv/internal/units"

// Scaphandre divides the measured machine power among processes by their
// share of CPU time — the algorithm documented by the Scaphandre project:
// each process receives RAPL power × (process jiffies / total busy jiffies).
//
// This is the paper's family (F1): residual and idle consumption are split
// with the same ratio as active consumption, because the division simply
// does not distinguish them.
type Scaphandre struct {
	ticks *tickAdapter
}

// NewScaphandre returns a Scaphandre-model factory.
func NewScaphandre() Factory {
	return Factory{Name: "scaphandre", New: func(int64) Model { return &Scaphandre{} }}
}

// Name returns "scaphandre".
func (m *Scaphandre) Name() string { return "scaphandre" }

// Observe divides one tick as a one-tick segment.
func (m *Scaphandre) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto divides one dense tick as a one-tick segment.
func (m *Scaphandre) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto divides every tick by the segment's constant
// CPU-time shares.
func (m *Scaphandre) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	w := out[:n]
	for i, p := range seg.Samples {
		w[i] = units.Watts(p.CPUTime.Seconds())
	}
	shareOutSegment(seg.Powers, w, out, ok)
}

// Kepler divides the measured machine power among processes by their share
// of retired instructions, the dominant term of Kepler's eBPF-sampled
// counter model for Kubernetes workloads. The paper notes Kepler "operates
// on a model that is relatively similar to the one utilized by Scaphandre"
// and that its conclusions transfer; the instruction basis differs from the
// CPU-time basis exactly by the workloads' IPC ratios.
type Kepler struct {
	ticks *tickAdapter
}

// NewKepler returns a Kepler-model factory.
func NewKepler() Factory {
	return Factory{Name: "kepler", New: func(int64) Model { return &Kepler{} }}
}

// Name returns "kepler".
func (m *Kepler) Name() string { return "kepler" }

// Observe divides one tick as a one-tick segment.
func (m *Kepler) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto divides one dense tick as a one-tick segment.
func (m *Kepler) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto divides every tick by the segment's constant
// instruction shares.
func (m *Kepler) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	w := out[:n]
	for i, p := range seg.Samples {
		w[i] = units.Watts(p.Counters.Instructions)
	}
	shareOutSegment(seg.Powers, w, out, ok)
}
