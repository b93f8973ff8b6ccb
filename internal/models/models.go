// Package models implements the process-level power division models the
// paper evaluates, behind a single streaming interface:
//
//   - Scaphandre: CPU-time-share division of the measured machine power;
//   - PowerAPI: per-window linear regression of machine power against
//     performance counters with a learning phase, and the many-core
//     calibration instability the paper observed on DAHU (Fig 8);
//   - Kepler: performance-counter-share division (the paper discards it
//     from its runs because it targets Kubernetes, but notes its model is
//     close to Scaphandre's — it is included here to check that claim);
//   - F2: the paper's proposed ratio-preserving family, which divides
//     power by the ratio of per-application isolated baselines;
//   - Oracle: ground-truth division, available only on the simulator.
//
// All of these are "F1-shaped" in their output contract: each tick they
// split the measured machine power C_{S,t} among the running processes (the
// estimates sum to C_{S,t} whenever they produce estimates at all).
//
// Every model receives one input shape: a roster-indexed tick. Tick.Roster
// names the processes in sorted-ID order, and Tick.Samples holds one sample
// per roster slot; a process that did not run during the interval has a
// zero sample (Present() == false). The producer owns the roster: the
// protocol uses the scenario's, and the live meter keeps one over the
// sampled PID set.
//
// Each model writes its division rule once, as ObserveSegmentInto: a run
// of ticks whose samples are constant (SegmentTicks), divided into
// roster-indexed estimate rows. The per-tick entry points divide a tick as
// a one-tick segment: ObserveInto into a roster-indexed column, Observe
// into a map holding every present process's estimate. Every
// floating-point sum runs in roster-slot order, so all of them produce
// bit-identical estimates.
package models

import (
	"sort"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// ProcSample is what a power model may observe about one process during one
// sampling interval: scheduler-level CPU accounting and performance
// counters. TrueActive is the simulator's ground-truth active power; it is
// zero when the samples come from real sensors and is only consumed by the
// Oracle model.
type ProcSample struct {
	CPUTime  units.CPUTime
	Counters perfcnt.Counters
	// Threads is the number of busy threads observed for the process
	// during the interval (0 when the backend cannot tell).
	Threads int
	// TrueActive is simulator ground truth; real backends leave it 0.
	TrueActive units.Watts
}

// Present reports whether the sample belongs to a process that ran during
// the interval. Dense columns carry a zero sample for absent roster slots;
// a running process always has at least one busy thread.
func (p ProcSample) Present() bool { return p.Threads > 0 }

// Tick is one sampling interval's model input.
type Tick struct {
	At       time.Duration
	Interval time.Duration
	// MachinePower is the sensor reading (RAPL) for the interval: C_{S,t}.
	MachinePower units.Watts
	// LogicalCPUs is the machine's logical CPU count; some models behave
	// differently at scale.
	LogicalCPUs int
	// Freq is the frequency busy cores ran at during the interval
	// (observable on real hardware via cpufreq's scaling_cur_freq; 0 when
	// unknown). Residual-aware models consume it.
	Freq units.Hertz
	// Degraded marks an interval measured with reduced fidelity by a live
	// meter: dropped ticks were coalesced into it (so Interval spans more
	// than one nominal sampling period) or some sensor zones were missing.
	// Division still works — the share weights cover the same span as the
	// power — but self-calibrating models must not feed degraded intervals
	// into their learning windows, where a mis-scaled row corrupts every
	// later estimate. Simulator-driven ticks always leave it false.
	Degraded bool
	// Samples is a column indexed by Roster slot; absent processes hold a
	// zero sample (Present() == false). All ticks of one replay share the
	// same roster.
	Roster  *machine.Roster
	Samples []ProcSample
}

// Model is a streaming power division model. Observe returns the estimated
// power of each present process for the tick (the paper's
// Ce^{P_i}_{S,t}), keyed by roster ID, or nil when the model has no
// estimate (e.g. during PowerAPI's learning phase — the paper notes such
// drops "occur whenever there is a change in context" and removes them
// from consideration, as the protocol driver does here).
type Model interface {
	Name() string
	Observe(t Tick) map[string]units.Watts
}

// DenseModel is the columnar form of Model. ObserveInto divides a tick
// into out, a caller-owned roster-indexed column — typically one slice of
// a replay-owned slab. On true, out[slot] holds every roster slot's
// estimate (absent processes 0); on false the model has no estimate for
// the tick and out is zero.
//
// ObserveInto advances the same calibration state as Observe, so a model
// instance must be driven through exactly one of the two entry points for
// its whole lifetime, in tick order.
type DenseModel interface {
	Model
	ObserveInto(t Tick, out []units.Watts) bool
}

// Factory constructs a fresh model instance for one scenario run. seed
// feeds any internal randomness (PowerAPI's calibration instability);
// deterministic models ignore it.
type Factory struct {
	Name string
	// Fingerprint is always empty: nothing keys on a factory's
	// configuration.
	//
	// Deprecated: no factory sets it; it will be removed.
	Fingerprint string
	New         func(seed int64) Model
}

// SampleOf returns what a model may observe of one simulated process
// tick, ground-truth active power included.
func SampleOf(pt *machine.ProcTick) ProcSample {
	return ProcSample{
		CPUTime:    pt.CPUTime,
		Counters:   pt.Counters,
		Threads:    pt.Threads,
		TrueActive: pt.ActivePower,
	}
}

// DenseEstimates is a replay's roster-indexed estimate matrix: one
// units.Watts column per tick, all carved from a single slab owned by the
// replay. A column is meaningful only when its OK flag is set; columns of
// estimate-free ticks are zero.
type DenseEstimates struct {
	Roster *machine.Roster
	// Slab holds every tick's column back to back; Row slices it.
	Slab []units.Watts
	// OK[i] reports whether the model produced an estimate at tick i
	// (the dense equivalent of a non-nil Observe map).
	OK []bool
}

// Ticks returns the number of replayed ticks.
func (d *DenseEstimates) Ticks() int { return len(d.OK) }

// Row returns tick i's estimate column, indexed by roster slot. The slice
// aliases the slab; it is only meaningful when OK[i] is true.
func (d *DenseEstimates) Row(i int) []units.Watts {
	n := d.Roster.Len()
	return d.Slab[i*n : (i+1)*n]
}

// ShareOut distributes power among processes proportionally to weights.
// It returns nil when all weights are zero (nothing to attribute).
// Summation runs in sorted key order so results are bit-reproducible
// across runs despite map iteration being randomised.
func ShareOut(power units.Watts, weights map[string]float64) map[string]units.Watts {
	ids := make([]string, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var total float64
	for _, id := range ids {
		if w := weights[id]; w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]units.Watts, len(weights))
	for _, id := range ids {
		w := weights[id]
		if w < 0 {
			w = 0
		}
		out[id] = units.Watts(float64(power) * w / total)
	}
	return out
}

// ShareOutInto is ShareOut's dense form. On entry out holds each roster
// slot's weight (absent slots zero, negatives clamped like ShareOut); on
// return it holds each slot's share of power. It returns false — leaving
// out unspecified — when no weight is positive, mirroring ShareOut's nil.
//
// Slot order is sorted-ID order, so the weight total accumulates in
// exactly the order ShareOut uses: the two forms are bit-identical.
func ShareOutInto(power units.Watts, out []units.Watts) bool {
	var total float64
	for _, w := range out {
		if w > 0 {
			total += float64(w)
		}
	}
	if total <= 0 {
		return false
	}
	for i, w := range out {
		if w < 0 {
			w = 0
		}
		out[i] = units.Watts(float64(power) * float64(w) / total)
	}
	return true
}

// tickAdapter serves a model's per-tick entry points over its segment
// method: a tick is a one-tick segment. Models hold it as a lazily
// allocated pointer (see adapter), so models driven only through segments
// never pay for it.
type tickAdapter struct {
	seg   SegmentTicks
	power [1]units.Watts
	ok    [1]bool
	// est is Observe's one-tick estimate column.
	est []units.Watts
}

// adapter returns *p, allocating it on first use.
func adapter(p **tickAdapter) *tickAdapter {
	if *p == nil {
		*p = new(tickAdapter)
	}
	return *p
}

// observeInto divides one tick as a one-tick segment. out is cleared
// first: ObserveInto callers may pass a dirty column, and the segment
// contract promises a zeroed one.
func (a *tickAdapter) observeInto(sm SegmentModel, t Tick, out []units.Watts) bool {
	clear(out)
	a.power[0] = t.MachinePower
	a.ok[0] = false
	a.seg = SegmentTicks{Tick: t, Powers: a.power[:]}
	sm.ObserveSegmentInto(&a.seg, out, a.ok[:])
	// Drop the references to the caller's tick.
	a.seg.Tick = Tick{}
	return a.ok[0]
}

// observe divides one tick and returns the estimates of its present
// processes (nil when the model has none).
func (a *tickAdapter) observe(sm SegmentModel, t Tick) map[string]units.Watts {
	a.est = sized(a.est, len(t.Samples))
	if !a.observeInto(sm, t, a.est) {
		return nil
	}
	est := make(map[string]units.Watts, len(t.Samples))
	for slot, p := range t.Samples {
		if p.Present() {
			est[t.Roster.ID(slot)] = a.est[slot]
		}
	}
	return est
}

// sized returns s resliced to n elements, reallocating only on growth.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
