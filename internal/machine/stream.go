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

// StreamInfo summarises a streamed simulation: the roster the yielded
// columns are indexed by, how many ticks ran, the covered duration, and
// when each process finished (the paper's T_S^{P_i}).
type StreamInfo struct {
	Config Config
	// Roster indexes the yielded Procs columns; slot order is sorted-ID
	// order, exactly as in a materialised Run.
	Roster   *Roster
	Ticks    int
	Duration time.Duration
	ProcEnd  map[string]time.Duration
}

// noiseRNG draws the per-tick sensor-noise overlay. The generator is a
// pooled register (see noisePool) taken and seeded on the first draw, so
// noise-free runs (stddev <= 0) never touch it, and handed back by
// release when the run ends. Noisy runs consume the source exactly as the
// historical per-tick loop did — one NormFloat64 per emitted tick, in tick
// order — and rng.Source is bit-identical to math/rand's, so sampled
// powers are bit-identical.
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

// releaseAll releases every repetition's register of a batch.
func releaseAll(noise []noiseRNG) {
	for i := range noise {
		noise[i].release()
	}
}

// Stream runs the scenario for at most maxDur, handing each tick to yield
// as it is produced instead of materialising a Run — the O(ticks-in-flight)
// entry point of the streaming campaign pipeline. The record passed to
// yield, including its Procs column, is scratch owned by Stream and valid
// only during the call; consumers must copy whatever they keep. Ticks
// arrive in time order and are bit-identical to the records Simulate would
// store (Simulate is a collector over Stream). A non-nil error from yield
// aborts the run and is returned unwrapped; like Simulate, the run ends
// early once every process has started and finished, and oversubscription
// returns ErrContention (wrapped, with the tick time).
//
// Internally Stream walks the run segment by segment (see segments.go):
// stepTick runs once per constant segment and the cached record is
// restamped per tick with only the timestamp and the noise overlay
// varying, which is what makes cold simulation cheap for scenarios whose
// segments are much rarer than their ticks.
func Stream(cfg Config, procs []Proc, maxDur time.Duration, yield func(rec *TickRecord) error) (*StreamInfo, error) {
	ordered, info, err := streamSetup(cfg, procs, maxDur)
	if err != nil {
		return nil, err
	}
	cur := newSegCursor(cfg, ordered, maxDur)
	defer cur.release()
	noise := newNoiseRNG(cfg.NoiseStddev, cfg.Seed)
	defer noise.release()
	var emitted int64
	for !cur.done {
		startK, endK, err := cur.next()
		if err != nil {
			return nil, err
		}
		rec := &cur.rec
		base := rec.TruePower
		for k := startK; k < endK; k++ {
			rec.At = time.Duration(k) * cur.tick
			rec.Power = noise.sample(base)
			if err := yield(rec); err != nil {
				return nil, err
			}
		}
		emitted = endK
	}
	cur.finish(info, emitted)
	return info, nil
}

// streamSetup validates a streamed simulation's inputs and builds the
// shared prologue: the sorted scheduling order and the info skeleton whose
// roster indexes the yielded columns. Processes that already arrive in
// strictly ascending ID order — how the protocol hands them over — are
// scheduled in place, with no copy, no sort and no duplicate-ID map; the
// stream only reads them.
func streamSetup(cfg Config, procs []Proc, maxDur time.Duration) ([]Proc, *StreamInfo, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	if maxDur <= 0 {
		return nil, nil, fmt.Errorf("machine: non-positive duration %v", maxDur)
	}
	// While the IDs ascend strictly, no earlier ID can repeat the current
	// one; the first out-of-order ID switches to a set of every ID seen.
	var seen map[string]bool
	for i := range procs {
		p := &procs[i]
		if err := p.Validate(cfg); err != nil {
			return nil, nil, err
		}
		if seen == nil && i > 0 && procs[i-1].ID >= p.ID {
			seen = make(map[string]bool, len(procs))
			for _, q := range procs[:i] {
				seen[q.ID] = true
			}
		}
		if seen != nil {
			if seen[p.ID] {
				return nil, nil, fmt.Errorf("machine: duplicate process ID %q", p.ID)
			}
			seen[p.ID] = true
		}
	}
	// Deterministic scheduling order regardless of caller's slice order.
	ordered := procs
	if seen != nil {
		ordered = append([]Proc(nil), procs...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	}
	// The roster's slot order is the sorted scheduling order, so a
	// process's slot is its index in ordered.
	rosterIDs := make([]string, len(ordered))
	for i, p := range ordered {
		rosterIDs[i] = p.ID
	}
	info := &StreamInfo{Config: cfg, Roster: newSortedRoster(rosterIDs), ProcEnd: make(map[string]time.Duration, len(ordered))}
	return ordered, info, nil
}

// streamBatchSetup extends streamSetup with StreamBatchSegments'
// per-repetition noise sources.
func streamBatchSetup(cfg Config, procs []Proc, maxDur time.Duration, seeds []int64) ([]Proc, *StreamInfo, []noiseRNG, error) {
	if len(seeds) == 0 {
		return nil, nil, nil, fmt.Errorf("machine: batch needs at least one seed")
	}
	ordered, info, err := streamSetup(cfg, procs, maxDur)
	if err != nil {
		return nil, nil, nil, err
	}
	noise := make([]noiseRNG, len(seeds))
	for i, seed := range seeds {
		noise[i] = newNoiseRNG(cfg.NoiseStddev, seed)
	}
	return ordered, info, noise, nil
}

// StreamBatchSegments runs one scenario under several noise seeds in a
// single simulator pass. The deterministic dynamics — scheduling,
// frequency, utilization, true power — never depend on Config.Seed (the
// seed feeds only the sensor-noise overlay), so repetitions of a run that
// differ only in seed share every stepTick computation. For every constant
// segment of the run, yield is called once per seed in slice order with
// the repetition index and the segment carrying that repetition's
// per-tick noisy powers. Within one segment every repetition shares Rec
// (and its Procs column); only Powers differs. Each repetition's noise
// source is advanced once per tick in tick order, so for rep k the
// flattened (At(i), Powers[i], Rec) sequence is bit-identical to Stream
// with Seed=seeds[k]. The record and power buffers are scratch valid only
// during the yield.
//
// The returned info is shared across repetitions (ticks, duration and
// ProcEnd are seed-independent); its Config is the input cfg, whose own
// Seed is unused.
func StreamBatchSegments(cfg Config, procs []Proc, maxDur time.Duration, seeds []int64, yield func(rep int, seg *Segment) error) (*StreamInfo, error) {
	ordered, info, noise, err := streamBatchSetup(cfg, procs, maxDur, seeds)
	if err != nil {
		return nil, err
	}
	defer releaseAll(noise)
	cur := newSegCursor(cfg, ordered, maxDur)
	defer cur.release()
	seg := Segment{Rec: &cur.rec, Interval: cur.tick}
	powers := make([][]units.Watts, len(seeds))
	var emitted int64
	for !cur.done {
		startK, endK, err := cur.next()
		if err != nil {
			return nil, err
		}
		n := endK - startK
		base := cur.rec.TruePower
		for rep := range seeds {
			powers[rep] = resize(powers[rep], int(n))
			for i := int64(0); i < n; i++ {
				powers[rep][i] = noise[rep].sample(base)
			}
		}
		seg.StartTick = int(startK)
		cur.rec.At = time.Duration(startK) * cur.tick
		for rep := range seeds {
			seg.Powers = powers[rep]
			cur.rec.Power = seg.Powers[0]
			if err := yield(rep, &seg); err != nil {
				return nil, err
			}
		}
		emitted = endK
	}
	cur.finish(info, emitted)
	return info, nil
}
