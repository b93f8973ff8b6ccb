package models

import (
	"math"

	"powerdiv/internal/units"
)

// WattScope is a non-intrusive disaggregation model in the style of
// WattScope (arXiv 2309.12612): it estimates per-process power from the
// signals a datacenter operator actually has — the machine-level power
// reading and coarse per-process utilization — with no per-zone RAPL
// access, no performance counters and no calibration runs against isolated
// baselines.
//
// Two ideas carry the method:
//
//   - an online static-power estimate: the running minimum of the machine
//     power observed so far approximates the machine's load-independent
//     floor (idle plus baseline residual), the way WattScope learns a
//     machine's static draw from its power history rather than from a
//     calibration phase;
//   - coarse utilization shares: per-process CPU utilization quantized to
//     Quantum-sized steps (default 5%), modelling the low-resolution
//     utilization telemetry fleets collect, divides the dynamic part
//     (power above the learned floor) while the static part is split
//     evenly among the processes present.
//
// The output stays F1-shaped — per-tick estimates sum to the machine
// power — so it scores directly against the intrusive models in the same
// error tables. Degraded ticks are still divided (the share weights span
// the same interval as the power reading) but are excluded from floor
// learning, where a coalesced multi-period reading would corrupt the
// minimum for every later tick.
type WattScope struct {
	// quantum is the utilization quantization step in [0, 1].
	quantum float64
	// floor is the running minimum machine power; primed marks whether any
	// non-degraded tick has seeded it yet.
	floor  float64
	primed bool
	ticks  *tickAdapter
	// slotUtils is the per-slot coarse-utilization scratch.
	slotUtils []float64
}

// DefaultUtilQuantum is the coarse-utilization step: 5%, the granularity
// of typical fleet utilization telemetry.
const DefaultUtilQuantum = 0.05

// NewWattScope returns a wattscope-model factory. The model is
// deterministic, so the seed is ignored.
func NewWattScope() Factory {
	return Factory{Name: "wattscope", New: func(int64) Model {
		return &WattScope{quantum: DefaultUtilQuantum}
	}}
}

// Name returns "wattscope".
func (m *WattScope) Name() string { return "wattscope" }

// learnFloorPower advances the static-power estimate with one tick's
// machine reading. Called exactly once per tick, idle ticks included.
func (m *WattScope) learnFloorPower(degraded bool, p float64) {
	if degraded {
		return
	}
	if !m.primed || p < m.floor {
		m.floor = p
		m.primed = true
	}
}

// staticPower returns the portion of the tick's machine power attributed
// to the load-independent floor. Before the first non-degraded tick primes
// the floor the whole reading counts as static (dynamic share zero), which
// keeps degraded-only prefixes finite.
func (m *WattScope) staticPower(power float64) float64 {
	if !m.primed {
		return power
	}
	return math.Min(m.floor, power)
}

// coarseUtil quantizes one process's utilization over the interval:
// CPU-seconds per wall-second (a multi-threaded process can exceed 1),
// rounded to the nearest quantum step.
func (m *WattScope) coarseUtil(cpu units.CPUTime, t Tick) float64 {
	iv := t.Interval.Seconds()
	if iv <= 0 {
		return 0
	}
	u := cpu.Seconds() / iv
	if u < 0 {
		u = 0
	}
	if m.quantum <= 0 {
		return u
	}
	return math.Round(u/m.quantum) * m.quantum
}

// Observe divides one tick as a one-tick segment.
func (m *WattScope) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto divides one dense tick as a one-tick segment.
func (m *WattScope) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto divides every tick's machine power: the floor split
// evenly among the present processes, the rest by the segment's constant
// coarse-utilization shares. Only the running-minimum floor advances per
// tick, in tick order.
func (m *WattScope) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	m.slotUtils = sized(m.slotUtils, n)
	utils := m.slotUtils
	present := 0
	var totalUtil float64
	for i, p := range seg.Samples {
		utils[i] = 0
		if p.Present() {
			present++
			u := m.coarseUtil(p.CPUTime, seg.Tick)
			utils[i] = u
			totalUtil += u
		}
	}
	if present == 0 {
		// Idle ticks still feed the floor.
		for k := range seg.Powers {
			m.learnFloorPower(seg.Degraded, float64(seg.Powers[k]))
			ok[k] = false
		}
		return
	}
	for k, pw := range seg.Powers {
		power := float64(pw)
		m.learnFloorPower(seg.Degraded, power)
		static := m.staticPower(power)
		dynamic := power - static
		if totalUtil <= 0 {
			// Every present process quantized to zero utilization: nothing
			// to apportion the dynamic part by, so the whole reading is
			// split evenly like the floor.
			static, dynamic = power, 0
		}
		perProc := static / float64(present)
		row := out[k*n : (k+1)*n]
		for i, p := range seg.Samples {
			if !p.Present() {
				row[i] = 0
				continue
			}
			est := perProc
			if dynamic > 0 {
				est += dynamic * utils[i] / totalUtil
			}
			row[i] = units.Watts(est)
		}
		ok[k] = true
	}
}
