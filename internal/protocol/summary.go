package protocol

import (
	"fmt"
	"slices"
	"sync"
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
// expanded to one entry per tick, then reduced; what the caches keep is
// the extracted division.Baseline (see baselineCached). A summary is
// reusable: fill overwrites it in place, keeping its buffers, so phase 1
// recycles pooled summaries (soloBaseline) instead of allocating O(ticks)
// state per solo run.
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

	// window is the stable-window search's series, refilled per baseline.
	window *trace.Series
}

// newRunSummary streams a simulation's segments directly into a fresh
// digest; no machine.Run is materialized.
func newRunSummary(cfg machine.Config, procs []machine.Proc, maxDur time.Duration) (*RunSummary, error) {
	s := new(RunSummary)
	if err := s.fill(cfg, procs, maxDur); err != nil {
		return nil, err
	}
	return s, nil
}

// fill streams a simulation's segments into s, overwriting whatever run it
// held before and reusing its buffers.
func (s *RunSummary) fill(cfg machine.Config, procs []machine.Proc, maxDur time.Duration) error {
	reserve := cfg.ReservedTicks(maxDur)
	s.Tick = cfg.TickInterval()
	s.Power = slices.Grow(s.Power[:0], reserve)
	s.TruePower = slices.Grow(s.TruePower[:0], reserve)
	s.ResidIdle = slices.Grow(s.ResidIdle[:0], reserve)
	s.CPUTime = slices.Grow(s.CPUTime[:0], reserve*len(procs))
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
		return err
	}
	s.Roster = info.Roster
	s.Ticks = info.Ticks
	s.Duration = info.Duration
	return nil
}

// PowerSeries returns the measured power trace (times are i·Tick, matching
// the simulator's tick schedule).
func (s *RunSummary) PowerSeries() *trace.Series {
	return trace.FromValues(s.Tick, s.Power...)
}

// baseline extracts the phase 1 baseline of app from the digest: mean
// noise-free power, mean idle+residual and mean busy cores over the
// least-extreme stable window (of length stable) of the noise-free trace.
// Bit-identical to the same extraction over a whole machine.Run (the
// tests' reference) — the trace has the same samples and the accumulations run in
// the same order (adding an absent slot's zero CPU time is bit-neutral:
// utilization is non-negative). The window search runs on the summary's
// own reusable series.
func (s *RunSummary) baseline(stable time.Duration, appID string) (division.Baseline, error) {
	if s.window == nil {
		s.window = trace.NewWithCap(s.Ticks)
	}
	power := s.window
	power.Reset()
	for i, v := range s.TruePower {
		power.Append(time.Duration(i)*s.Tick, v)
	}
	from, to, err := power.StableWindowBounds(stable)
	if err != nil {
		from, to = power.Start(), power.End()
	}
	to++
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

// summaryPool recycles phase 1 digests across solo runs: a campaign's
// phase 1 simulates one solo run per application, and each digest's
// buffers are O(run ticks).
var summaryPool = sync.Pool{New: func() any { return new(RunSummary) }}

// soloBaseline simulates a solo run into a pooled digest and extracts id's
// baseline over the stable window; the digest goes back to the pool on
// return. It is the compute behind every baseline-tier miss.
func soloBaseline(cfg machine.Config, procs []machine.Proc, maxDur, stable time.Duration, id string) (division.Baseline, error) {
	sum := summaryPool.Get().(*RunSummary)
	defer func() {
		sum.Roster = nil
		summaryPool.Put(sum)
	}()
	if err := sum.fill(cfg, procs, maxDur); err != nil {
		return division.Baseline{}, fmt.Errorf("protocol: solo run of %s: %w", id, err)
	}
	return sum.baseline(stable, id)
}
