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

// baselineSeg is one constant segment of a solo run as phase 1 reads it:
// its tick range [start, end), its idle+residual power and the
// application's busy cores, both constant within the segment.
type baselineSeg struct {
	start, end       int
	residIdle, cores float64
}

// baselineScratch is phase 1's per-run state: the noise-free power series
// the stable-window search runs on (tick i at i·tick) and one entry per
// segment. Both are refilled per solo run and keep their buffers, so a
// warm phase 1 allocates no O(ticks) state (see baselinePool).
type baselineScratch struct {
	power *trace.Series
	segs  []baselineSeg
}

// baselinePool recycles phase 1 scratch across solo runs.
var baselinePool = sync.Pool{New: func() any { return new(baselineScratch) }}

// appSlot returns id's column in a stream of procs — its position in
// sorted-ID order, the order of the stream's columns — or -1 when no
// process has that ID.
func appSlot(procs []machine.Proc, id string) int {
	if !slices.ContainsFunc(procs, func(p machine.Proc) bool { return p.ID == id }) {
		return -1
	}
	slot := 0
	for i := range procs {
		if procs[i].ID < id {
			slot++
		}
	}
	return slot
}

// soloBaseline streams a solo run into pooled scratch and extracts id's
// phase 1 baseline: mean noise-free power, mean idle+residual and mean
// busy cores over the least-extreme stable window (of length stable) of
// the noise-free trace. The average adds each segment's values once per
// covered tick, in tick order, so it is bit-identical to the extraction
// over a whole machine.Run (the tests' reference); an absent tick's zero
// CPU time is bit-neutral. It is the compute behind every baseline miss.
func soloBaseline(cfg machine.Config, procs []machine.Proc, maxDur, stable time.Duration, id string) (division.Baseline, error) {
	sc := baselinePool.Get().(*baselineScratch)
	defer baselinePool.Put(sc)
	if sc.power == nil {
		sc.power = trace.NewWithCap(cfg.ReservedTicks(maxDur))
	}
	power := sc.power
	power.Reset()
	sc.segs = sc.segs[:0]
	tick := cfg.TickInterval()
	slot := appSlot(procs, id)
	err := machine.Stream(cfg, procs, maxDur, func(seg *machine.Segment) error {
		rec := seg.Rec
		s := baselineSeg{start: seg.StartTick, end: seg.StartTick + seg.Ticks(), residIdle: float64(rec.Idle + rec.Residual)}
		if slot >= 0 {
			s.cores = rec.Procs[slot].CPUTime.Utilization(tick)
		}
		sc.segs = append(sc.segs, s)
		truePower := float64(rec.TruePower)
		for i := range seg.Powers {
			power.Append(seg.At(i), truePower)
		}
		return nil
	})
	if err != nil {
		return division.Baseline{}, fmt.Errorf("protocol: solo run of %s: %w", id, err)
	}
	// The window's bounds are sample times i·tick: ticks first..last.
	from, to, err := power.StableWindowBounds(stable)
	if err != nil {
		from, to = power.Start(), power.End()
	}
	first, last := int(from/tick), int(to/tick)
	var total, residIdle, cores float64
	var n int
	for _, s := range sc.segs {
		for i := max(s.start, first); i < min(s.end, last+1); i++ {
			total += power.At(i).Value
			residIdle += s.residIdle
			cores += s.cores
			n++
		}
	}
	if n == 0 {
		return division.Baseline{}, fmt.Errorf("protocol: empty stable window for %s", id)
	}
	return division.Baseline{
		ID:       id,
		Total:    units.Watts(total / float64(n)),
		Residual: units.Watts(residIdle / float64(n)),
		Cores:    cores / float64(n),
	}, nil
}
