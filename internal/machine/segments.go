package machine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"powerdiv/internal/units"
)

// The segment engine exploits the piecewise-constant structure of the
// simulator's dynamics. Every input stepTick reads — process presence
// (Start/Stop edges), the active phase of each workload script, pins,
// quotas, per-core costs — changes only at a small, statically enumerable
// set of tick indices, the scenario's change-points. Between consecutive
// change-points the demands, placements, governor frequency, power
// breakdown and the whole dense ProcTick column are identical from tick to
// tick; only the timestamp and the sensor-noise draw differ. The engine
// therefore runs stepTick once per segment and stamps the cached record
// across the segment's ticks, drawing noise in tick order so the RNG
// consumption — and with it every yielded float — stays bit-identical to
// stepping every tick.

// Segment is a maximal run of consecutive ticks over which the simulator's
// dynamics are constant: one stepTick evaluation covers every tick of the
// segment. Rec (including its Procs column) is scratch owned by the
// stream, shared by all ticks of the segment and valid only during the
// yield; its At and Power fields are those of the segment's first tick.
// Per-tick values come from At(i) and Powers[i].
type Segment struct {
	// Rec is the shared tick record: breakdown, frequency and the dense
	// Procs column are identical for every tick of the segment.
	Rec *TickRecord
	// StartTick is the global index of the segment's first tick.
	StartTick int
	// Interval is the tick period.
	Interval time.Duration
	// Powers holds each tick's measured machine power — the noise-free
	// total plus that tick's noise draw. len(Powers) is the segment's
	// tick count.
	Powers []units.Watts
}

// Ticks returns the number of ticks the segment covers.
func (s *Segment) Ticks() int { return len(s.Powers) }

// At returns the timestamp of the segment's i-th tick: the exact integer
// multiple of the interval for its global tick index.
func (s *Segment) At(i int) time.Duration {
	return time.Duration(int64(s.StartTick)+int64(i)) * s.Interval
}

// ceilTick returns the first tick index k (with t_k = k·tick) such that
// t_k >= d — the tick at which a condition "t >= d" first flips true.
// Times at or before the origin flip at tick 0.
func ceilTick(d, tick time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return (int64(d) + int64(tick) - 1) / int64(tick)
}

// changePointTicks enumerates the sorted, deduplicated tick indices at
// which any stepTick input can change: each process's first running tick
// (ceil of Start, which is also where allStarted can flip), its Stop edge,
// and every workload phase boundary shifted by the process's start. Tick 0
// is always a change-point. Indices at or beyond totalTicks are dropped.
//
// ok is false when the enumeration cannot prove the dynamics
// piecewise-constant within int64 time arithmetic (durations close enough
// to the representable ceiling that the ceiling division could overflow);
// callers then fall back to per-tick stepping, which needs no such proof.
func changePointTicks(procs []Proc, tick, maxDur time.Duration, totalTicks int64, buf []int64, boundsBuf []time.Duration) (cps []int64, bounds []time.Duration, ok bool) {
	if int64(maxDur) > math.MaxInt64-int64(tick) {
		return buf, boundsBuf, false
	}
	cps = append(buf[:0], 0)
	add := func(d time.Duration) {
		// d >= maxDur implies ceilTick(d) >= totalTicks: past the horizon.
		if d >= maxDur {
			return
		}
		if k := ceilTick(d, tick); k > 0 && k < totalTicks {
			cps = append(cps, k)
		}
	}
	bounds = boundsBuf
	for i := range procs {
		p := &procs[i]
		add(p.Start)
		if p.Stop != 0 {
			add(p.Stop)
		}
		bounds = p.Workload.PhaseBoundaries(bounds[:0])
		for _, b := range bounds {
			// A boundary beyond the representable time line cannot occur
			// within maxDur (bounded above); skip it rather than overflow.
			if p.Start > 0 && int64(b) > math.MaxInt64-int64(p.Start) {
				continue
			}
			add(p.Start + b)
		}
	}
	slices.Sort(cps)
	out := cps[:1]
	for _, k := range cps[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out, bounds, true
}

// segCursor walks one run segment by segment. Each next call evaluates
// stepTick at the head of the following segment and reports the tick range
// it covers; the evaluated record and column stay valid until the next
// call. When the change-point enumeration declines, every segment is a
// single tick: stepping tick by tick needs no proof of constancy.
type segCursor struct {
	cfg        Config
	ordered    []Proc
	tick       time.Duration
	phys, nCPU int
	totalTicks int64
	// cps holds the change-point tick indices; nil means the per-tick
	// fallback.
	cps []int64
	j   int   // index into cps of the next unentered change-point
	k   int64 // next tick index to cover
	sc  tickScratch
	col []ProcTick
	rec TickRecord
	// seg is the segment handed to yield; it points at rec.
	seg Segment
	// ends records each process's observed finish time by roster slot
	// (endUnset until seen); summary copies it into StreamInfo.Ends.
	ends     []time.Duration
	segments uint64
	done     bool
	// noise holds one sensor-noise source per repetition, and powers each
	// repetition's per-tick power buffer for the current segment. The
	// buffers are scratch valid only during a yield and keep their storage
	// across runs; every entry is written before it is yielded.
	noise  []noiseRNG
	powers [][]units.Watts
	// cpsBuf/boundsBuf are changePointTicks' buffers, kept across runs.
	cpsBuf    []int64
	boundsBuf []time.Duration
}

// segCursors recycles cursors across runs: a campaign streams one run per
// scenario, and a cursor's scratch (placements, demands, per-CPU loads,
// the ProcTick column, change-points, power buffers) would otherwise be
// rebuilt for every one. newSegCursor resets every per-run field and
// tickScratch.beginRun refills the per-run caches, so a recycled cursor
// computes exactly what a fresh one does. It is a pointer so a test can compare against cursors
// from an empty pool.
var segCursors = &sync.Pool{New: func() any { return new(segCursor) }}

func newSegCursor(cfg Config, ordered []Proc, maxDur time.Duration, seeds []int64) *segCursor {
	tick := cfg.tick()
	c := segCursors.Get().(*segCursor)
	c.cfg, c.ordered, c.tick = cfg, ordered, tick
	c.phys = cfg.Spec.Topology.PhysicalCores()
	c.nCPU = cfg.schedulableCPUs()
	// ceil(maxDur/tick) by quotient and remainder: the (maxDur+tick-1)/tick
	// form overflows for horizons within a tick of math.MaxInt64.
	c.totalTicks = int64(maxDur / tick)
	if maxDur%tick != 0 {
		c.totalTicks++
	}
	c.j, c.k, c.segments, c.done = 0, 0, 0, false
	c.sc.beginRun(cfg, ordered)
	c.col = resize(c.col, len(ordered))
	c.ends = resize(c.ends, len(ordered))
	for i := range c.ends {
		c.ends[i] = endUnset
	}
	c.noise = resize(c.noise, len(seeds))
	for i, seed := range seeds {
		c.noise[i] = newNoiseRNG(cfg.NoiseStddev, seed)
	}
	c.powers = resize(c.powers, len(seeds))
	cps, bounds, ok := changePointTicks(ordered, tick, maxDur, c.totalTicks, c.cpsBuf, c.boundsBuf)
	c.cpsBuf, c.boundsBuf, c.cps = cps, bounds, nil
	if ok {
		c.cps = cps
	}
	return c
}

// release hands the cursor back to segCursors once its stream has
// returned. The noise registers go back to their pool, and the caller's
// process slice and the scratch record are dropped, so a pooled cursor
// pins no caller memory and nothing of this run is reachable from it once
// another run takes it.
func (c *segCursor) release() {
	for i := range c.noise {
		c.noise[i].release()
	}
	c.ordered = nil
	c.cfg = Config{}
	c.rec = TickRecord{}
	c.seg = Segment{}
	segCursors.Put(c)
}

// resize returns buf with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// next advances to the following segment. It evaluates stepTick at the
// segment's first tick into c.rec/c.col and returns the half-open tick
// range [startK, endK) the evaluation covers. A terminal segment — every
// process started and none active — covers exactly one tick and ends the
// run. next must not be called after c.done is set.
func (c *segCursor) next() (startK, endK int64, err error) {
	startK = c.k
	t := time.Duration(startK) * c.tick
	clear(c.col)
	active, err := stepTick(c.cfg, c.ordered, t, c.tick, c.phys, c.nCPU, c.ends, &c.sc, c.col, &c.rec)
	if err != nil {
		return 0, 0, fmt.Errorf("%w at t=%v", err, t)
	}
	c.segments++
	endK = c.totalTicks
	if c.cps != nil {
		for c.j < len(c.cps) && c.cps[c.j] <= startK {
			c.j++
		}
		if c.j < len(c.cps) {
			endK = c.cps[c.j]
		}
	} else if startK+1 < endK {
		endK = startK + 1
	}
	// The early-exit condition is constant within a segment: demands (and
	// hence active) only change at change-points, and allStarted flips at
	// per-process start ticks, which are change-points too. A terminal
	// segment emits exactly one tick: the first idle tick after the last
	// process finished.
	if !active && allStarted(c.ordered, t) {
		endK = startK + 1
		c.done = true
	}
	c.k = endK
	if c.k >= c.totalTicks {
		c.done = true
	}
	return startK, endK, nil
}

// summary is the ended run's StreamInfo: tick count, covered duration and
// the per-process end times (processes never observed finished end with
// the run), over a roster in scheduling order.
func (c *segCursor) summary() *StreamInfo {
	info := &StreamInfo{Ticks: int(c.k), Duration: time.Duration(c.k) * c.tick, Ends: make([]time.Duration, len(c.ordered))}
	ids := make([]string, len(c.ordered))
	for slot, end := range c.ends {
		ids[slot] = c.ordered[slot].ID
		if end == endUnset {
			end = info.Duration
		}
		info.Ends[slot] = end
	}
	info.Roster = newSortedRoster(ids)
	return info
}

// finish counts the ended run in the machine-level obs counters.
func (c *segCursor) finish() {
	emitted := c.k
	obsRuns.Inc()
	n := uint64(emitted)
	obsTicksSimulated.Add(n)
	if n >= c.sc.grownTicks {
		obsScratchReused.Add(n - c.sc.grownTicks)
	}
	obsSegments.Add(c.segments)
}
