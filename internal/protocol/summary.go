package protocol

import (
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
)

// RunSummary is the per-tick digest of a simulated solo run that phase 1
// extracts a baseline from: the machine power traces (measured,
// noise-free, idle+residual), the per-tick CPU-time column of each roster
// process, and the run's shape. It is filled from the run's segments,
// expanded to one entry per tick, then reduced and dropped; what the
// caches keep is the extracted division.Baseline (see baselineCached).
//
// The values are stored exactly as the materialized accessors would compute
// them (float64(rec.TruePower), float64(rec.Idle+rec.Residual), ...), so
// every statistic derived from a summary is bit-identical to the same
// statistic derived from the run.
type RunSummary struct {
	Roster *machine.Roster
	// Tick is the sampling period; tick i's time is i·Tick, exactly the
	// simulator's schedule.
	Tick     time.Duration
	Ticks    int
	Duration time.Duration
	// Power / TruePower / ResidIdle are per-tick machine traces (watts):
	// the sensor reading, the noise-free total, and idle+residual.
	Power     []float64
	TruePower []float64
	ResidIdle []float64
	// CPUTime is a Ticks × Roster.Len() slab: tick i, slot s is
	// CPUTime[i*Roster.Len()+s]. Absent processes hold zero.
	CPUTime []units.CPUTime
}

// newRunSummary streams a simulation's segments directly into its digest;
// no machine.Run is materialized.
func newRunSummary(cfg machine.Config, procs []machine.Proc, maxDur time.Duration) (*RunSummary, error) {
	reserve := cfg.ReservedTicks(maxDur)
	s := &RunSummary{
		Tick:      cfg.TickInterval(),
		Power:     make([]float64, 0, reserve),
		TruePower: make([]float64, 0, reserve),
		ResidIdle: make([]float64, 0, reserve),
		CPUTime:   make([]units.CPUTime, 0, reserve*len(procs)),
	}
	info, err := machine.StreamSegments(cfg, procs, maxDur, func(seg *machine.Segment) error {
		rec := seg.Rec
		truePower, residIdle := float64(rec.TruePower), float64(rec.Idle+rec.Residual)
		for _, p := range seg.Powers {
			s.Power = append(s.Power, float64(p))
			s.TruePower = append(s.TruePower, truePower)
			s.ResidIdle = append(s.ResidIdle, residIdle)
			for slot := range rec.Procs {
				s.CPUTime = append(s.CPUTime, rec.Procs[slot].CPUTime)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Roster = info.Roster
	s.Ticks = info.Ticks
	s.Duration = info.Duration
	return s, nil
}

// PowerSeries returns the measured power trace (times are i·Tick, matching
// the simulator's tick schedule).
func (s *RunSummary) PowerSeries() *trace.Series {
	return trace.FromValues(s.Tick, s.Power...)
}

// TruePowerSeries returns the noise-free power trace.
func (s *RunSummary) TruePowerSeries() *trace.Series {
	return trace.FromValues(s.Tick, s.TruePower...)
}

// baseline extracts the phase 1 baseline of app from the digest: mean
// noise-free power, mean idle+residual and mean busy cores over the
// least-extreme stable window (of length stable) of the noise-free trace.
// Bit-identical to the same extraction over a whole machine.Run (the
// tests' reference) — the trace has the same samples and the accumulations run in
// the same order (adding an absent slot's zero CPU time is bit-neutral:
// utilization is non-negative).
func (s *RunSummary) baseline(stable time.Duration, appID string) (division.Baseline, error) {
	power := s.TruePowerSeries()
	window, err := power.StableWindow(stable)
	if err != nil {
		window = power
	}
	from, to := window.Start(), window.End()+1
	var total, residIdle, cores float64
	var n int
	slot, hasSlot := s.Roster.Slot(appID)
	w := s.Roster.Len()
	for i := 0; i < s.Ticks; i++ {
		if at := time.Duration(i) * s.Tick; at < from || at >= to {
			continue
		}
		total += s.TruePower[i]
		residIdle += s.ResidIdle[i]
		if hasSlot {
			cores += s.CPUTime[i*w+slot].Utilization(s.Tick)
		}
		n++
	}
	if n == 0 {
		return division.Baseline{}, fmt.Errorf("protocol: empty stable window for %s", appID)
	}
	return division.Baseline{
		ID:       appID,
		Total:    units.Watts(total / float64(n)),
		Residual: units.Watts(residIdle / float64(n)),
		Cores:    cores / float64(n),
	}, nil
}

// soloBaseline simulates a solo run into its digest and extracts id's
// baseline over the stable window; the digest is dropped on return. It is
// the compute behind every baseline-tier miss.
func soloBaseline(cfg machine.Config, procs []machine.Proc, maxDur, stable time.Duration, id string) (division.Baseline, error) {
	sum, err := newRunSummary(cfg, procs, maxDur)
	if err != nil {
		return division.Baseline{}, fmt.Errorf("protocol: solo run of %s: %w", id, err)
	}
	return sum.baseline(stable, id)
}
