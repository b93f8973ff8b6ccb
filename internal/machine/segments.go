package machine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
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
// the per-tick loop.
//
// perTick gates the engine off. It exists so the equivalence tests can pin
// the segment path against the per-tick reference loop; its zero value
// leaves the engine on.
var perTick atomic.Bool

// SetSegmented toggles the segment engine and reports the previous
// setting. With the engine off, Stream and the segment-level entry points
// step every tick individually (each tick becomes its own
// one-tick segment), which is the reference behaviour the golden tests
// compare against.
func SetSegmented(on bool) bool { return !perTick.Swap(!on) }

// Segmented reports whether the segment engine is enabled.
func Segmented() bool { return !perTick.Load() }

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

// At returns the timestamp of the segment's i-th tick. Tick timestamps
// are exact integer multiples of the interval, so this matches the
// per-tick loop's accumulated time bit for bit.
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
	sort.Slice(cps, func(i, j int) bool { return cps[i] < cps[j] })
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
// call. When the engine is disabled (or the change-point enumeration
// declined), every segment is a single tick — the reference per-tick loop
// expressed in the same shape.
type segCursor struct {
	cfg        Config
	ordered    []Proc
	tick       time.Duration
	phys, nCPU int
	totalTicks int64
	// cps holds the change-point tick indices when the engine is active;
	// nil means per-tick fallback.
	cps []int64
	j   int   // index into cps of the next unentered change-point
	k   int64 // next tick index to cover
	sc  tickScratch
	col []ProcTick
	rec TickRecord
	// ends records each process's observed finish time by roster slot
	// (endUnset until seen) — the slot-indexed replacement for the old
	// per-tick map.
	ends     []time.Duration
	segments uint64
	done     bool
	// cpsBuf/boundsBuf are changePointTicks' buffers, kept across runs.
	cpsBuf    []int64
	boundsBuf []time.Duration
}

// segCursors recycles cursors across runs: a campaign streams one run per
// scenario, and a cursor's scratch (placements, demands, per-CPU loads,
// the ProcTick column, change-points) would otherwise be rebuilt for every
// one. newSegCursor resets every per-run field and tickScratch.beginRun
// refills the per-run caches, so a recycled cursor computes exactly what a
// fresh one does. It is a pointer so a test can compare against cursors
// from an empty pool.
var segCursors = &sync.Pool{New: func() any { return new(segCursor) }}

func newSegCursor(cfg Config, ordered []Proc, maxDur time.Duration) *segCursor {
	tick := cfg.tick()
	c := segCursors.Get().(*segCursor)
	c.cfg, c.ordered, c.tick = cfg, ordered, tick
	c.phys = cfg.Spec.Topology.PhysicalCores()
	c.nCPU = cfg.schedulableCPUs()
	c.totalTicks = (int64(maxDur) + int64(tick) - 1) / int64(tick)
	c.j, c.k, c.segments, c.done = 0, 0, 0, false
	c.sc.beginRun(cfg, ordered)
	c.col = resize(c.col, len(ordered))
	c.ends = resize(c.ends, len(ordered))
	for i := range c.ends {
		c.ends[i] = endUnset
	}
	c.cps = nil
	if !perTick.Load() {
		cps, bounds, ok := changePointTicks(ordered, tick, maxDur, c.totalTicks, c.cpsBuf, c.boundsBuf)
		c.cpsBuf, c.boundsBuf = cps, bounds
		if ok {
			c.cps = cps
		}
	}
	return c
}

// release hands the cursor back to segCursors once its stream has
// returned. The caller's process slice and the scratch record are dropped
// first, so a pooled cursor pins no caller memory and nothing of this run
// is reachable from it once another run takes it.
func (c *segCursor) release() {
	c.ordered = nil
	c.cfg = Config{}
	c.rec = TickRecord{}
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
// process started and none active, where the per-tick loop breaks after
// one yield — covers exactly one tick and ends the run. next must not be
// called after c.done is set.
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
	// segment therefore emits exactly one tick, like the per-tick loop's
	// post-yield break.
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

// finish folds the cursor's bookkeeping into info once the stream ends:
// tick count, covered duration, the per-process end times (processes never
// observed finished end with the run), and the machine-level obs counters.
func (c *segCursor) finish(info *StreamInfo, emitted int64) {
	info.Ticks = int(emitted)
	info.Duration = time.Duration(emitted) * c.tick
	for i := range c.ordered {
		if c.ends[i] != endUnset {
			info.ProcEnd[c.ordered[i].ID] = c.ends[i]
		} else {
			info.ProcEnd[c.ordered[i].ID] = info.Duration
		}
	}
	obsRuns.Inc()
	n := uint64(emitted)
	obsTicksSimulated.Add(n)
	if n >= c.sc.grownTicks {
		obsScratchReused.Add(n - c.sc.grownTicks)
	}
	obsSegments.Add(c.segments)
}

// segPowers recycles StreamSegments' per-tick power buffers across runs: a
// campaign streams one run per scenario, and the buffer — scratch valid
// only during the yield — would otherwise be a fresh allocation each time.
// Every entry is written before it is yielded, so reuse cannot change a
// single yielded value.
var segPowers = sync.Pool{New: func() any { return new([]units.Watts) }}

// StreamSegments runs the scenario like Stream but hands whole segments to
// yield instead of individual ticks: seg.Rec (breakdown, frequency, dense
// Procs column) is shared by all seg.Ticks() ticks, and seg.Powers carries
// each tick's noisy machine power. Consuming segments instead of ticks
// lets observers that are themselves piecewise-constant (see
// models.SegmentModel) skip per-tick recomputation entirely. The sequence
// of (At(i), Powers[i], Rec) triples is bit-identical to the records
// Stream would yield: the same stepTick values are reused and the noise
// RNG is consumed once per tick in tick order. Like Stream, the record and
// power buffer are scratch valid only during the yield: the power buffer
// and the cursor behind the record go back to their pools when the call
// returns, on every exit path.
func StreamSegments(cfg Config, procs []Proc, maxDur time.Duration, yield func(seg *Segment) error) (*StreamInfo, error) {
	ordered, info, err := streamSetup(cfg, procs, maxDur)
	if err != nil {
		return nil, err
	}
	cur := newSegCursor(cfg, ordered, maxDur)
	defer cur.release()
	noise := newNoiseRNG(cfg.NoiseStddev, cfg.Seed)
	defer noise.release()
	buf := segPowers.Get().(*[]units.Watts)
	seg := Segment{Rec: &cur.rec, Interval: cur.tick, Powers: *buf}
	defer func() {
		*buf, seg.Powers = seg.Powers[:0], nil
		segPowers.Put(buf)
	}()
	var emitted int64
	for !cur.done {
		startK, endK, err := cur.next()
		if err != nil {
			return nil, err
		}
		n := endK - startK
		seg.Powers = resize(seg.Powers, int(n))
		base := cur.rec.TruePower
		for i := int64(0); i < n; i++ {
			seg.Powers[i] = noise.sample(base)
		}
		seg.StartTick = int(startK)
		cur.rec.At = time.Duration(startK) * cur.tick
		cur.rec.Power = seg.Powers[0]
		emitted = endK
		if err := yield(&seg); err != nil {
			return nil, err
		}
	}
	cur.finish(info, emitted)
	return info, nil
}
