package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"powerdiv/internal/rng"
	"powerdiv/internal/units"
)

// TickInterval returns the simulation step the config resolves to
// (DefaultTick when Tick is unset), so consumers sizing per-tick buffers
// agree with the simulator on the tick count.
func (c Config) TickInterval() time.Duration { return c.tick() }

// ReservedTicks is how many ticks a consumer of a run of at most maxDur
// should reserve per-tick buffers for up front: the horizon's tick count
// maxDur/tick+1, capped at maxReservedTicks and never negative. Buffers
// grow by append past it.
func (c Config) ReservedTicks(maxDur time.Duration) int {
	return int(max(min(maxDur/c.tick(), maxReservedTicks-1)+1, 0))
}

// maxReservedTicks caps every up-front per-tick reservation. It lies well
// above the protocol's runs (30 s at the 100 ms tick is 301 ticks), so
// they reserve exactly once, while a horizon near math.MaxInt64 reserves
// a bounded amount instead of failing to allocate.
const maxReservedTicks = 1 << 14

// StreamInfo summarises a streamed simulation: the roster the yielded
// columns are indexed by, how many ticks ran, the covered duration, and
// when each process finished (the paper's T_S^{P_i}).
type StreamInfo struct {
	// Roster indexes the yielded Procs columns; slot order is sorted-ID
	// order, exactly as in a materialised Run.
	Roster   *Roster
	Ticks    int
	Duration time.Duration
	// Ends holds each process's finish time by roster slot: when its
	// script completed or its Stop was reached, or Duration for a process
	// still running when the run ended. Run.ProcEnd is the same times
	// keyed by ID.
	Ends []time.Duration
}

// noiseRNG draws the per-tick sensor-noise overlay. The generator is a
// pooled register (see noisePool) taken and seeded on the first draw, so
// noise-free runs (stddev <= 0) never touch it, and handed back by
// release when the run ends. Noisy runs draw one NormFloat64 per emitted
// tick, in tick order, and rng.Source is bit-identical to math/rand's, so
// the sampled powers are those of a math/rand source with the same seed.
type noiseRNG struct {
	stddev float64
	seed   int64
	rng    *rand.Rand
}

// noisePool recycles noise registers across runs: re-seeding a used
// rng.Source in place allocates nothing, where a fresh one is a 4.9 kB
// allocation per simulated run.
var noisePool = sync.Pool{New: func() any { return rand.New(new(rng.Source)) }}

func newNoiseRNG(stddev units.Watts, seed int64) noiseRNG {
	return noiseRNG{stddev: float64(stddev), seed: seed}
}

// sample returns base plus one noise draw (or base unchanged for
// noise-free runs).
func (n *noiseRNG) sample(base units.Watts) units.Watts {
	if !(n.stddev > 0) {
		return base
	}
	if n.rng == nil {
		n.rng = noisePool.Get().(*rand.Rand)
		n.rng.Seed(n.seed)
	}
	return units.Watts(float64(base) + n.rng.NormFloat64()*n.stddev)
}

// release hands the register back to noisePool. The owner's pointer is
// cleared before the Put, so the register is never reachable from this
// run once another run can take it from the pool.
func (n *noiseRNG) release() {
	r := n.rng
	if r == nil {
		return
	}
	n.rng = nil
	noisePool.Put(r)
}

// streamSetup validates a streamed simulation's inputs and returns the
// sorted scheduling order, whose index is the roster slot of the yielded
// columns. Processes that already arrive in strictly ascending ID order —
// how the protocol hands them over — are scheduled in place, with no
// copy, no sort and no duplicate-ID map; the stream only reads them.
func streamSetup(cfg Config, procs []Proc, maxDur time.Duration) ([]Proc, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if maxDur <= 0 {
		return nil, fmt.Errorf("machine: non-positive duration %v", maxDur)
	}
	// While the IDs ascend strictly, no earlier ID can repeat the current
	// one; the first out-of-order ID switches to a set of every ID seen.
	var seen map[string]bool
	for i := range procs {
		p := &procs[i]
		if err := p.Validate(cfg); err != nil {
			return nil, err
		}
		if seen == nil && i > 0 && procs[i-1].ID >= p.ID {
			seen = make(map[string]bool, len(procs))
			for _, q := range procs[:i] {
				seen[q.ID] = true
			}
		}
		if seen != nil {
			if seen[p.ID] {
				return nil, fmt.Errorf("machine: duplicate process ID %q", p.ID)
			}
			seen[p.ID] = true
		}
	}
	// Deterministic scheduling order regardless of caller's slice order.
	if seen == nil {
		return procs, nil
	}
	ordered := append([]Proc(nil), procs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	return ordered, nil
}

// StreamSegments runs the scenario for at most maxDur and hands it to
// yield one constant segment at a time: seg.Rec (breakdown, frequency,
// dense Procs column) is shared by all seg.Ticks() ticks, and seg.Powers
// carries each tick's noisy machine power, drawn from Config.Seed in tick
// order. Consuming segments instead of ticks lets observers that are
// themselves piecewise-constant (see models.SegmentModel) skip per-tick
// recomputation entirely. The record and power buffer are scratch valid
// only during the yield; they go back to their pools when the call
// returns, on every exit path. A non-nil error from yield aborts the run
// and is returned unwrapped. The run ends early once every process has
// started and finished, and oversubscription returns ErrContention
// (wrapped, with the tick time).
//
// StreamSegments is the one-seed call of StreamBatchSegments.
func StreamSegments(cfg Config, procs []Proc, maxDur time.Duration, yield func(seg *Segment) error) (*StreamInfo, error) {
	return streamBatch(cfg, procs, maxDur, []int64{cfg.Seed}, true, func(_ int, seg *Segment) error {
		return yield(seg)
	})
}

// Stream is StreamSegments without the StreamInfo, for a caller that
// needs only the segments.
func Stream(cfg Config, procs []Proc, maxDur time.Duration, yield func(seg *Segment) error) error {
	_, err := streamBatch(cfg, procs, maxDur, []int64{cfg.Seed}, false, func(_ int, seg *Segment) error {
		return yield(seg)
	})
	return err
}

// StreamBatchSegments runs one scenario under several noise seeds in a
// single simulator pass; it is the simulator's one stepping loop. The
// deterministic dynamics — scheduling, frequency, utilization, true power
// — never depend on Config.Seed (the seed feeds only the sensor-noise
// overlay), so repetitions of a run that differ only in seed share every
// stepTick computation. For every constant segment of the run, yield is
// called once per seed in slice order with the repetition index and the
// segment carrying that repetition's per-tick noisy powers. Within one
// segment every repetition shares Rec (and its Procs column); only Powers
// differs. Each repetition's noise source is advanced once per tick in
// tick order, so for rep k the segments are bit-identical to
// StreamSegments with Seed=seeds[k]. The record and the pooled power
// buffers are scratch valid only during the yield.
//
// The returned info is shared across repetitions (ticks, duration and
// end times are seed-independent); cfg's own Seed is unused.
func StreamBatchSegments(cfg Config, procs []Proc, maxDur time.Duration, seeds []int64, yield func(rep int, seg *Segment) error) (*StreamInfo, error) {
	return streamBatch(cfg, procs, maxDur, seeds, true, yield)
}

// streamBatch is StreamBatchSegments, returning the run's StreamInfo only
// when summarize is set (nil otherwise).
func streamBatch(cfg Config, procs []Proc, maxDur time.Duration, seeds []int64, summarize bool, yield func(rep int, seg *Segment) error) (*StreamInfo, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("machine: batch needs at least one seed")
	}
	ordered, err := streamSetup(cfg, procs, maxDur)
	if err != nil {
		return nil, err
	}
	cur := newSegCursor(cfg, ordered, maxDur, seeds)
	defer cur.release()
	seg := &cur.seg
	*seg = Segment{Rec: &cur.rec, Interval: cur.tick}
	for !cur.done {
		startK, endK, err := cur.next()
		if err != nil {
			return nil, err
		}
		base := cur.rec.TruePower
		for rep := range cur.noise {
			powers := resize(cur.powers[rep], int(endK-startK))
			for i := range powers {
				powers[i] = cur.noise[rep].sample(base)
			}
			cur.powers[rep] = powers
		}
		seg.StartTick = int(startK)
		cur.rec.At = time.Duration(startK) * cur.tick
		for rep, powers := range cur.powers {
			seg.Powers = powers
			cur.rec.Power = powers[0]
			if err := yield(rep, seg); err != nil {
				return nil, err
			}
		}
	}
	cur.finish()
	if !summarize {
		return nil, nil
	}
	return cur.summary(), nil
}
