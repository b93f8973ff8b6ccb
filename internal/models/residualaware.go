package models

import (
	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
)

// ResidualAware is the division model the paper's §IV-B analysis calls
// for: instead of treating the machine total as an undifferentiated pool
// (family F1), it decomposes each tick's power using a machine calibration
//
//	C = idle + R(f)·maxDuty + active
//
// and corrects the allocation for residual causation: each process's
// weight is its estimated active power (CPU-time share of the active part)
// plus the residual *excess* it is responsible for — R(f) times how much
// its own duty factor exceeds the smallest duty in the scenario. A 50 %-
// capped process thus stops subsidising an uncapped neighbour's residual,
// matching the §IV-B statement that "the increase in residual consumption
// should be attributed to the applications that caused one of the cores to
// increase CPU frequency". When all duty factors are equal (the ordinary
// uncapped case) the correction vanishes and the model coincides with
// CPU-time division.
//
// It needs a machine calibration (idle power and residual curve — obtain
// one with cpumodel.FitPowerModel on a real machine, or from the built-in
// specs) plus the per-tick core frequency, which real meters can read from
// cpufreq.
type ResidualAware struct {
	idle     units.Watts
	residual cpumodel.ResidualCurve
	baseFreq units.Hertz

	ticks *tickAdapter
	// slotDuties, slotShares and slotResid are the per-slot duty, CPU share
	// and residual-excess scratch, reused across segments.
	slotDuties []float64
	slotShares []float64
	slotResid  []float64
}

// NewResidualAware returns a residual-aware model factory for a machine
// with the given calibration.
func NewResidualAware(idle units.Watts, residual cpumodel.ResidualCurve, baseFreq units.Hertz) Factory {
	return Factory{
		Name: "residual-aware",
		New: func(int64) Model {
			return &ResidualAware{idle: idle, residual: residual, baseFreq: baseFreq}
		},
	}
}

// NewResidualAwareFromSpec builds the factory from a built-in calibration.
func NewResidualAwareFromSpec(spec cpumodel.Spec) Factory {
	return NewResidualAware(spec.Power.Idle, spec.Power.Residual, spec.Power.BaseFreq)
}

// Name returns "residual-aware".
func (m *ResidualAware) Name() string { return "residual-aware" }

// duty returns a present process's per-thread duty factor in [0, 1]: the
// fraction of the interval its threads ran (a present sample has at least
// one thread).
func duty(p ProcSample, interval units.CPUTime) float64 {
	if interval <= 0 {
		return 0
	}
	util := p.CPUTime.Seconds() / interval.Seconds() / float64(p.Threads)
	if util > 1 {
		util = 1
	}
	return util
}

// Observe divides one tick as a one-tick segment.
func (m *ResidualAware) Observe(t Tick) map[string]units.Watts {
	return adapter(&m.ticks).observe(m, t)
}

// ObserveInto divides one dense tick as a one-tick segment.
func (m *ResidualAware) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// ObserveSegmentInto decomposes every tick with the segment's constant
// duties, CPU shares and residual-excess terms; only the allocatable
// active part varies with the tick's power.
func (m *ResidualAware) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	interval := units.CPUTime(seg.Interval)
	m.slotDuties = sized(m.slotDuties, n)
	m.slotShares = sized(m.slotShares, n)
	m.slotResid = sized(m.slotResid, n)
	duties, shares, resid := m.slotDuties, m.slotShares, m.slotResid

	var totalCPU float64
	maxDuty := 0.0
	for i, p := range seg.Samples {
		duties[i] = 0
		if !p.Present() {
			continue
		}
		totalCPU += p.CPUTime.Seconds()
		d := duty(p, interval)
		duties[i] = d
		if d > maxDuty {
			maxDuty = d
		}
	}
	if totalCPU <= 0 {
		for k := range ok {
			ok[k] = false
		}
		return
	}
	minDuty := maxDuty
	for i, p := range seg.Samples {
		if p.Present() && duties[i] < minDuty {
			minDuty = duties[i]
		}
	}
	freq := seg.Freq
	if freq <= 0 {
		freq = m.baseFreq
	}
	r := m.residual.At(freq)
	for i, p := range seg.Samples {
		shares[i], resid[i] = 0, 0
		if !p.Present() {
			continue
		}
		// Estimated active power plus the residual excess this process
		// causes beyond the scenario's least-demanding one.
		shares[i] = p.CPUTime.Seconds() / totalCPU
		resid[i] = float64(r) * (duties[i] - minDuty)
	}
	drawnResidual := units.Watts(float64(r) * maxDuty)
	for k, pw := range seg.Powers {
		active := pw - m.idle - drawnResidual
		if active < 0 {
			active = 0
		}
		activeF := float64(active)
		row := out[k*n : (k+1)*n]
		for i, p := range seg.Samples {
			row[i] = 0
			if !p.Present() {
				continue
			}
			row[i] = units.Watts(activeF*shares[i] + resid[i])
		}
		if ShareOutInto(pw, row) {
			ok[k] = true
		} else {
			clear(row)
			ok[k] = false
		}
	}
}
