// Package machine is the discrete-time simulator of a physical server that
// the evaluation protocol runs against. It replaces the paper's Grid'5000
// hardware: it schedules process threads onto logical CPUs, drives the DVFS
// governor, and produces per-tick machine power with the idle / residual /
// active decomposition of the cpumodel package — plus the ground truth
// (per-process active power) that real hardware cannot expose, which is
// exactly what makes the protocol's objective value computable here.
//
// The simulator is deterministic: all randomness (sensor noise) comes from
// an explicitly seeded source in the Config.
package machine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// DefaultTick is the simulation step and sensor sampling period.
const DefaultTick = 100 * time.Millisecond

// ErrContention is returned by Run when the processes demand more logical
// CPUs than the machine has. The paper's protocol requires contention-free
// scenarios ("ensuring there is no contention on the machine"), so the
// simulator refuses to run oversubscribed ones rather than silently
// time-sharing.
var ErrContention = errors.New("machine: scenario oversubscribes logical CPUs")

// Config describes the simulated machine and its performance settings —
// the paper's "laboratory" context is HT and turbo off, the "production"
// context both on.
type Config struct {
	Spec cpumodel.Spec
	// Hyperthreading exposes the second hardware thread of each core to
	// the scheduler.
	Hyperthreading bool
	// Turbo enables turboboost in the frequency governor.
	Turbo bool
	// MaxFreq is an optional cpufreq-style frequency cap (0 = none),
	// used by the §III-B frequency-capping observations.
	MaxFreq units.Hertz
	// Tick is the simulation step; DefaultTick if zero.
	Tick time.Duration
	// NoiseStddev is the standard deviation of Gaussian noise added to the
	// measured machine power (the trace a sensor sees); ground-truth
	// fields are noise-free. stress-ng loads vary by under 0.5 W, so the
	// calibrations use ≈0.25 W.
	NoiseStddev units.Watts
	// Seed seeds the noise source.
	Seed int64
}

func (c Config) tick() time.Duration {
	if c.Tick <= 0 {
		return DefaultTick
	}
	return c.Tick
}

// schedulableCPUs returns how many logical CPUs the scheduler may use.
func (c Config) schedulableCPUs() int {
	if c.Hyperthreading {
		return c.Spec.Topology.LogicalCPUs()
	}
	return c.Spec.Topology.PhysicalCores()
}

// Proc is one process in a scenario.
type Proc struct {
	// ID names the process; it must be unique within a scenario.
	ID string
	// Workload drives the process's load and counters.
	Workload workload.Workload
	// Threads is the process's thread count (the default when the
	// workload has no phase script, and the ceiling when it does).
	Threads int
	// Start is the process's arrival time into the scenario.
	Start time.Duration
	// Stop ends the process early (0 = run until the scenario ends or the
	// workload's script completes).
	Stop time.Duration
	// CPUQuota is a cgroup-style cap on the fraction of CPU time each
	// thread may consume (0 or 1 = uncapped; 0.5 = the paper's §IV-B
	// 50 % cap).
	CPUQuota float64
	// Pinned optionally pins the process's threads to specific logical
	// CPUs (taskset-style); thread i runs on Pinned[i]. Must have at
	// least Threads entries when set.
	Pinned []int
}

func (p Proc) quota() float64 {
	if p.CPUQuota <= 0 || p.CPUQuota > 1 {
		return 1
	}
	return p.CPUQuota
}

// Validate checks the process description against a config.
func (p Proc) Validate(cfg Config) error {
	if p.ID == "" {
		return fmt.Errorf("machine: process with empty ID")
	}
	if err := p.Workload.Validate(); err != nil {
		return fmt.Errorf("machine: process %s: %w", p.ID, err)
	}
	if p.Threads <= 0 {
		return fmt.Errorf("machine: process %s: thread count %d", p.ID, p.Threads)
	}
	if p.Stop != 0 && p.Stop < p.Start {
		return fmt.Errorf("machine: process %s: stop %v before start %v", p.ID, p.Stop, p.Start)
	}
	if p.Pinned != nil {
		if len(p.Pinned) < p.Threads {
			return fmt.Errorf("machine: process %s: %d pins for %d threads", p.ID, len(p.Pinned), p.Threads)
		}
		n := cfg.schedulableCPUs()
		for _, cpu := range p.Pinned {
			if cpu < 0 || cpu >= n {
				return fmt.Errorf("machine: process %s: pin %d outside 0..%d", p.ID, cpu, n-1)
			}
		}
	}
	return nil
}

// ProcTick is a process's activity during one tick: its CPU time, its
// ground-truth active power (the sum of the active power of the cores its
// threads ran on — the quantity real hardware cannot report), and its
// synthesised performance counters.
type ProcTick struct {
	CPUTime     units.CPUTime
	ActivePower units.Watts
	Threads     int
	Counters    perfcnt.Counters
}

// Present reports whether the process was running during the tick. Dense
// tick columns hold a slot for every roster process; absent ones are zero
// records, and a running process always has at least one placed thread.
func (p ProcTick) Present() bool { return p.Threads > 0 }

// TickRecord is one simulation step's full observation.
type TickRecord struct {
	At time.Duration
	// Power is the machine power a sensor reads (ground truth + noise) —
	// the paper's C_{S,t}.
	Power units.Watts
	// TruePower is the noise-free machine total.
	TruePower units.Watts
	// Idle, Residual and Active decompose TruePower.
	Idle     units.Watts
	Residual units.Watts
	Active   units.Watts
	// Freq is the frequency busy cores ran at during the tick.
	Freq units.Hertz
	// Procs is the tick's dense activity column, indexed by the run's
	// roster slot. Processes not yet started or already finished have a
	// zero record (Present() == false). Simulate carves the columns of one
	// run from a shared slab.
	Procs []ProcTick
}

// Run is the result of simulating a scenario.
type Run struct {
	Config Config
	// Roster indexes the scenario's processes; each tick's Procs column is
	// indexed by roster slot.
	Roster   *Roster
	Ticks    []TickRecord
	Duration time.Duration
	// ProcEnd maps process ID to the time its workload finished (script
	// completed or Stop reached); processes still running at scenario end
	// map to the scenario duration. This is the paper's T_S^{P_i}.
	ProcEnd map[string]time.Duration
}

// ProcAt returns the activity of process id at tick index i; ok is false
// when the process was not running that tick (or is not in the roster).
func (r *Run) ProcAt(i int, id string) (ProcTick, bool) {
	slot, ok := r.Roster.Slot(id)
	if !ok {
		return ProcTick{}, false
	}
	pt := r.Ticks[i].Procs[slot]
	return pt, pt.Present()
}

// Simulate runs the scenario for at most maxDur and returns the trace.
// The run ends early when every process has finished. It returns
// ErrContention (wrapped) if at any tick the processes demand more logical
// CPUs than the machine exposes.
//
// Simulate is a collector over StreamSegments: it expands each segment
// into one TickRecord per tick, with every tick's column carved from one
// ProcTick slab. Both are reserved up front (ReservedTicks) and grow by
// append past the reservation.
func Simulate(cfg Config, procs []Proc, maxDur time.Duration) (*Run, error) {
	run := &Run{Config: cfg}
	n := len(procs)
	reserve := cfg.ReservedTicks(maxDur)
	run.Ticks = make([]TickRecord, 0, reserve)
	slab := make([]ProcTick, 0, reserve*n)
	info, err := StreamSegments(cfg, procs, maxDur, func(seg *Segment) error {
		for i, p := range seg.Powers {
			slab = append(slab, seg.Rec.Procs...)
			r := *seg.Rec
			r.At, r.Power = seg.At(i), p
			r.Procs = slab[len(slab)-n : len(slab) : len(slab)]
			run.Ticks = append(run.Ticks, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.Roster = info.Roster
	run.Duration = info.Duration
	run.ProcEnd = make(map[string]time.Duration, len(info.Ends))
	for slot, id := range info.Roster.IDs() {
		run.ProcEnd[id] = info.Ends[slot]
	}
	return run, nil
}

// allStarted reports whether every process's start time has passed.
func allStarted(procs []Proc, t time.Duration) bool {
	for _, p := range procs {
		if p.Start > t {
			return false
		}
	}
	return true
}

// threadPlacement is one busy thread's slot for a tick. It is deliberately
// pointer-free: the placement buffer is appended to for every busy thread
// of every tick, and a pointer field would drag a write barrier into each
// of those stores. The slot index reaches the process via procs[slot].
type threadPlacement struct {
	// slot is the process's roster slot (its index in the sorted
	// scheduling order), used to write the tick's dense Procs column.
	slot int
	cpu  int
	util float64
	cost units.Watts
}

// procDemand is one running process's CPU demand for a tick. Every thread
// of a process shares the same utilization and cost, and pinning is
// all-or-nothing per process (Proc.Validate), so demand is a pin list plus
// an unpinned-thread count rather than a per-thread record.
type procDemand struct {
	slot int
	util float64
	cost units.Watts
	// pins are the pinned logical CPUs, one per thread (nil when the
	// process is unpinned).
	pins []int
	// unpinned is the number of threads the scheduler places.
	unpinned int
}

// tickScratch holds the per-tick working buffers that a run reuses across
// ticks, so the hot loop only allocates what escapes into the TickRecord.
// A scratch serves one run at a time; the segment cursor that owns it is
// pooled, so its storage passes from run to run, and beginRun refills the
// per-run state at the start of each.
type tickScratch struct {
	demands    []procDemand
	placements []threadPlacement
	cpuBusy    []bool
	activePhys []bool
	loads      []cpumodel.CoreLoad
	perCore    []units.Watts
	// costOn caches float64(Workload.CostOn(spec)) per roster slot — the
	// value is constant for the whole run, and the map lookup behind CostOn
	// is too hot to repeat every tick. Filled by beginRun.
	costOn []float64
	// synth/synthSet memoise perfcnt.Synthesize per slot within one tick:
	// every placement of a process shares the same util (hence CPU time)
	// and the tick's frequency, so the synthesized counters are identical
	// across a process's threads. The per-placement Add order is untouched,
	// keeping the counter accumulation bit-identical.
	synth    []perfcnt.Counters
	synthSet []bool
	// pickCore/pickAny are pickCPU's scan cursors, reset each tick. Busy
	// bits are only ever set within a tick, so the lowest CPU satisfying
	// either scan's predicate is nondecreasing and the scans never need to
	// revisit earlier indices.
	pickCore, pickAny int
	// grownTicks counts ticks where a fixed-size buffer had to allocate.
	// The cursor flushes it to the obs counters once per run, keeping the
	// tick loop free of atomics.
	grownTicks uint64
}

// beginRun readies the scratch for a run of procs on cfg: it refills the
// per-slot cost cache, sizes the counter memo, and zeroes the growth
// count. Every other buffer is reset per tick by resetTick.
func (sc *tickScratch) beginRun(cfg Config, procs []Proc) {
	sc.costOn = resize(sc.costOn, len(procs))
	for i := range procs {
		sc.costOn[i] = float64(procs[i].Workload.CostOn(cfg.Spec.Name))
	}
	sc.synth = resize(sc.synth, len(procs))
	sc.grownTicks = 0
}

// resetTick readies the buffers for one step on nCPU logical CPUs and phys
// physical cores.
func (sc *tickScratch) resetTick(nCPU, phys int) {
	if cap(sc.cpuBusy) < nCPU || cap(sc.activePhys) < phys || cap(sc.loads) < nCPU {
		sc.grownTicks++
	}
	sc.demands = sc.demands[:0]
	sc.placements = sc.placements[:0]
	sc.pickCore, sc.pickAny = 0, 0
	sc.cpuBusy = resetBools(sc.cpuBusy, nCPU)
	sc.activePhys = resetBools(sc.activePhys, phys)
	if cap(sc.loads) < nCPU {
		sc.loads = make([]cpumodel.CoreLoad, nCPU)
	}
	sc.loads = sc.loads[:nCPU]
	for i := range sc.loads {
		sc.loads[i] = cpumodel.CoreLoad{}
	}
}

// resetBools returns a length-n all-false slice, reusing b's storage when
// it is large enough.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// stepTick computes one simulation step into rec (an out-parameter so the
// segment loop never copies the record struct). It reports whether any
// process was active this tick, and ErrContention on oversubscription.
//
// Unpinned threads are placed fairly: one thread per running process in
// round-robin order before any process gets its second CPU, so that when
// demand spills onto SMT siblings the discount is shared across processes
// (as a load-balancing scheduler would) instead of falling entirely on the
// last process in ID order.
func stepTick(cfg Config, procs []Proc, t, tick time.Duration, phys, nCPU int, ends []time.Duration, sc *tickScratch, col []ProcTick, rec *TickRecord) (bool, error) {
	sc.resetTick(nCPU, phys)
	sc.synthSet = resetBools(sc.synthSet, len(procs))

	// Gather each running process's demand for this tick. procs is in
	// sorted ID order, so index i is the process's roster slot.
	for i := range procs {
		p := &procs[i]
		if t < p.Start {
			continue
		}
		if p.Stop != 0 && t >= p.Stop {
			markEnd(ends, i, p.Stop)
			continue
		}
		phase, done := p.Workload.PhaseAt(t-p.Start, p.Threads)
		if done {
			markEnd(ends, i, p.Start+p.Workload.Duration())
			continue
		}
		threads := phase.Threads
		if threads > p.Threads {
			threads = p.Threads
		}
		d := procDemand{
			slot: i,
			util: phase.Util * p.quota(),
			cost: units.Watts(sc.costOn[i] * phase.Intensity),
		}
		if p.Pinned != nil {
			d.pins = p.Pinned[:threads]
		} else {
			d.unpinned = threads
		}
		sc.demands = append(sc.demands, d)
	}

	// Pinned threads claim their CPUs first.
	for di := range sc.demands {
		d := &sc.demands[di]
		for _, pin := range d.pins {
			if sc.cpuBusy[pin] {
				return false, ErrContention
			}
			sc.cpuBusy[pin] = true
			sc.placements = append(sc.placements, threadPlacement{slot: d.slot, cpu: pin, util: d.util, cost: d.cost})
		}
	}
	// Unpinned threads: round-robin across processes.
	for round := 0; ; round++ {
		progressed := false
		for di := range sc.demands {
			d := &sc.demands[di]
			if round >= d.unpinned {
				continue
			}
			progressed = true
			cpu, ok := sc.pickCPU(phys)
			if !ok {
				return false, ErrContention
			}
			sc.cpuBusy[cpu] = true
			sc.placements = append(sc.placements, threadPlacement{slot: d.slot, cpu: cpu, util: d.util, cost: d.cost})
		}
		if !progressed {
			break
		}
	}

	// Governor: frequency from the number of active physical cores.
	nActive := 0
	for pi := range sc.placements {
		if c := sc.placements[pi].cpu % phys; !sc.activePhys[c] {
			sc.activePhys[c] = true
			nActive++
		}
	}
	freq := cfg.Spec.Freq.ActiveFreq(nActive, cfg.Turbo, cfg.MaxFreq)

	// Build per-logical-CPU loads. A logical CPU is an SMT sibling when it
	// is the higher-numbered thread of a core whose other thread is busy.
	for pi := range sc.placements {
		pl := &sc.placements[pi]
		sibling := false
		if pl.cpu >= phys && sc.cpuBusy[pl.cpu-phys] {
			sibling = true
		}
		sc.loads[pl.cpu] = cpumodel.CoreLoad{
			Util:       pl.util,
			CostAtBase: pl.cost,
			Freq:       freq,
			SMTSibling: sibling,
		}
	}
	bd := cfg.Spec.Power.PowerInto(sc.loads, sc.perCore)
	sc.perCore = bd.PerCore

	*rec = TickRecord{
		At:        t,
		Idle:      bd.Idle,
		Residual:  bd.Residual,
		Active:    bd.Active,
		TruePower: bd.Total(),
		Freq:      freq,
		Procs:     col,
	}
	rec.Power = rec.TruePower
	for pi := range sc.placements {
		pl := &sc.placements[pi]
		pt := &col[pl.slot]
		cpuTime := units.CPUTime(float64(tick) * pl.util)
		pt.CPUTime += cpuTime
		pt.ActivePower += bd.PerCore[pl.cpu]
		pt.Threads++
		if !sc.synthSet[pl.slot] {
			sc.synth[pl.slot] = perfcnt.Synthesize(procs[pl.slot].Workload.Mix, cpuTime, freq)
			sc.synthSet[pl.slot] = true
		}
		pt.Counters = pt.Counters.Add(sc.synth[pl.slot])
	}
	return len(sc.placements) > 0, nil
}

// endUnset marks a roster slot whose process has not yet been observed
// finished. It lies far outside any representable scenario time, so it
// cannot collide with a real end time (Stop and Start+Duration are bounded
// by the scenario's own times).
const endUnset = time.Duration(math.MinInt64)

// markEnd records the first time a process was observed finished. ends is
// indexed by roster slot (procs are already in sorted-ID order), replacing
// the per-tick map hashing the slot-indexed store was introduced to avoid.
func markEnd(ends []time.Duration, slot int, at time.Duration) {
	if ends[slot] == endUnset {
		ends[slot] = at
	}
}

// pickCPU returns a free logical CPU, preferring cores with no busy thread
// (physical-first placement, like the Linux scheduler under low load).
// Logical CPU numbering: 0..phys-1 are the first threads of each core,
// phys..2·phys-1 their SMT siblings.
//
// The scans resume from per-tick cursors instead of index 0: within a tick
// busy bits are only ever set, so once an index fails a scan's predicate it
// fails for the rest of the tick and the lowest passing index never moves
// backwards. The picked CPU is identical to a full scan's.
func (sc *tickScratch) pickCPU(phys int) (int, bool) {
	busy := sc.cpuBusy
	for ; sc.pickCore < phys && sc.pickCore < len(busy); sc.pickCore++ {
		c := sc.pickCore
		if !busy[c] && (c+phys >= len(busy) || !busy[c+phys]) {
			return c, true
		}
	}
	for ; sc.pickAny < len(busy); sc.pickAny++ {
		if !busy[sc.pickAny] {
			return sc.pickAny, true
		}
	}
	return 0, false
}

// Tick returns the run's sampling period.
func (r *Run) Tick() time.Duration { return r.Config.tick() }

// PowerSeries returns the measured machine power trace (C_{S,t}).
func (r *Run) PowerSeries() *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	for _, rec := range r.Ticks {
		s.Append(rec.At, float64(rec.Power))
	}
	return s
}

// TruePowerSeries returns the noise-free machine power trace.
func (r *Run) TruePowerSeries() *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	for _, rec := range r.Ticks {
		s.Append(rec.At, float64(rec.TruePower))
	}
	return s
}

// ActiveSeries returns the machine's ground-truth active power (A_{S,t}).
func (r *Run) ActiveSeries() *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	for _, rec := range r.Ticks {
		s.Append(rec.At, float64(rec.Active))
	}
	return s
}

// ResidualSeries returns the ground-truth residual power over time.
func (r *Run) ResidualSeries() *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	for _, rec := range r.Ticks {
		s.Append(rec.At, float64(rec.Residual))
	}
	return s
}

// ProcActiveSeries returns a process's ground-truth active power trace.
func (r *Run) ProcActiveSeries(id string) *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	slot, ok := r.Roster.Slot(id)
	if !ok {
		return s
	}
	for _, rec := range r.Ticks {
		if pt := rec.Procs[slot]; pt.Present() {
			s.Append(rec.At, float64(pt.ActivePower))
		}
	}
	return s
}

// ProcCPUSeries returns a process's CPU utilization trace (cores busy).
func (r *Run) ProcCPUSeries(id string) *trace.Series {
	s := trace.NewWithCap(len(r.Ticks))
	slot, ok := r.Roster.Slot(id)
	if !ok {
		return s
	}
	tick := r.Tick()
	for _, rec := range r.Ticks {
		if pt := rec.Procs[slot]; pt.Present() {
			s.Append(rec.At, pt.CPUTime.Utilization(tick))
		}
	}
	return s
}

// Energy returns the total measured energy of the run.
func (r *Run) Energy() units.Joules {
	return r.PowerSeries().Energy(r.Tick())
}

// ProcIDs returns the IDs of all processes that were active at any tick,
// sorted. A roster process that never ran (e.g. its start lay beyond the
// simulated horizon) is not included.
func (r *Run) ProcIDs() []string {
	out := make([]string, 0, r.Roster.Len())
	for slot, id := range r.Roster.IDs() {
		for _, rec := range r.Ticks {
			if rec.Procs[slot].Present() {
				out = append(out, id)
				break
			}
		}
	}
	return out
}
