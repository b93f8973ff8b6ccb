// Package livemeter composes the RAPL powercap reader, the procfs CPU
// tracker and a power division model into a Scaphandre-style live power
// meter for a real Linux machine — the deployment path the paper's models
// target. It degrades gracefully: on machines without RAPL (or without the
// requested processes) Open reports a typed error the caller can surface.
//
// The meter is built to survive degraded ticks without losing attribution.
// A long-running deployment sees transient sysfs/procfs read errors, RAPL
// counter wraps, vanishing zones (package hotplug, permission loss), PID
// churn and stalled clocks; the meter's contract under all of them is:
//
//   - transient zone read errors are retried with backoff; if a tick still
//     cannot be measured it is *dropped, not lost*: process CPU-time deltas
//     and zone energy keep accumulating, and the next successful sample
//     attributes the whole coalesced interval (Attribution.CoalescedTicks);
//   - a primed meter never reverts to ErrNotPrimed — degraded ticks return
//     ErrDroppedTick, and only the disappearance of every zone returns
//     ErrZoneVanished;
//   - a zone that vanishes is dropped from the live set and the meter
//     continues on the survivors, flagging Attribution.Degraded and
//     reporting detail through Health;
//   - counter wraparound is folded in by rapl.Counter, and a reading so
//     implausible it must be a counter re-registration (not a wrap) is
//     discarded and the zone re-based instead of booking a huge spike.
//
// The meter is fully testable offline: both the powercap tree and the proc
// tree are injectable roots, every file read can be routed through
// Config.ReadFile, and the internal/faultfs harness drives all of the
// degraded paths deterministically.
package livemeter

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"sort"
	"strconv"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/obs"
	"powerdiv/internal/procfs"
	"powerdiv/internal/rapl"
	"powerdiv/internal/retry"
	"powerdiv/internal/units"
)

// Config locates the data sources.
type Config struct {
	// PowercapRoot is the powercap sysfs root ("" = /sys/class/powercap).
	PowercapRoot string
	// ProcRoot is the procfs root ("" = /proc).
	ProcRoot string
	// CPUFreqRoot is the cpufreq sysfs root ("" = /sys/devices/system/cpu;
	// frequency reads are best-effort — a missing tree just leaves
	// Tick.Freq zero, which frequency-aware models treat as "unknown").
	CPUFreqRoot string
	// UserHz is the kernel USER_HZ (0 = 100).
	UserHz int
	// Model divides the measured power; nil = Scaphandre.
	Model models.Model
	// ReadFile routes every sysfs/procfs file read (nil = os.ReadFile).
	// The fault-injection harness (internal/faultfs) plugs in here.
	ReadFile func(string) ([]byte, error)
	// Retry is the policy for transient zone read errors; the zero value
	// means retry.Default (3 attempts, 1 ms doubling backoff).
	Retry retry.Policy
}

const (
	// maxPlausiblePower is the per-zone sanity ceiling: a zone interval
	// implying more average power than this is treated as a counter
	// anomaly (re-registration), discarded and re-based rather than
	// reported. 10 kW is far above any package zone.
	maxPlausiblePower units.Watts = 10_000
	// vanishAfter is how many consecutive not-exist read failures mark a
	// zone as vanished.
	vanishAfter = 2
)

// Meter is a live process-level power meter.
type Meter struct {
	zones     []*rapl.PowercapZone
	counters  []*rapl.Counter
	zoneState []zoneState
	fs        *procfs.FS
	tracker   *procfs.Tracker
	model     models.Model
	freqRoot  string
	readFile  func(string) ([]byte, error)
	retry     retry.Policy

	start      time.Time
	lastAt     time.Duration // last accepted sample timestamp (stall detection)
	lastEmitAt time.Duration // last successful attribution timestamp
	primed     bool
	pending    map[int]pendingProc // proc activity carried across dropped ticks
	dropped    int                 // ticks dropped since the last emit

	// roster is the model's roster over the last non-idle interval's PIDs
	// (decimal strings, so slots run in sorted-string order); rosterPIDs
	// holds each slot's PID, ids is scratch for rebuilding the roster and
	// samples is the interval's sample column.
	roster     *machine.Roster
	rosterPIDs []int
	ids        []string
	samples    []models.ProcSample
}

// zoneState tracks one zone's availability.
type zoneState struct {
	misses   int // consecutive not-exist read failures
	vanished bool
	lastErr  error
}

// pendingProc accumulates one process's activity until the next emit.
type pendingProc struct {
	cpu     units.CPUTime
	threads int
}

// Attribution is one sampling interval's output.
type Attribution struct {
	// At is the sample time relative to the meter's first sample.
	At time.Duration
	// Interval is the span this attribution covers: the time since the
	// previous successful attribution (longer than the sampling period
	// when dropped ticks were coalesced; 0 on dropped ticks).
	Interval time.Duration
	// MachinePower is the summed package power over Interval.
	MachinePower units.Watts
	// PerPID maps process ID to its estimated power; nil while the model
	// warms up or when nothing ran.
	PerPID map[int]units.Watts
	// Degraded reports reduced fidelity: vanished zones, zones that failed
	// this tick, a discarded anomalous reading, or dropped ticks folded
	// into this interval.
	Degraded bool
	// CoalescedTicks is how many dropped sampling attempts since the
	// previous successful attribution were folded into this interval
	// (0 in steady state).
	CoalescedTicks int
	// ZonesLive and ZonesVanished count the meter's zone population.
	ZonesLive     int
	ZonesVanished int
}

// ZoneHealth is one zone's availability status, reported by Health.
type ZoneHealth struct {
	Name string
	// Vanished means the zone's files disappeared and the meter has
	// dropped it from the live set.
	Vanished bool
	// ConsecutiveMisses counts not-exist failures on a zone not yet
	// declared vanished.
	ConsecutiveMisses int
	// LastErr is the most recent read error (nil after a clean read).
	LastErr error
}

// Open discovers the RAPL zones and prepares the meter.
// It returns rapl.ErrNoRAPL (wrapped) when the machine has no RAPL.
func Open(cfg Config) (*Meter, error) {
	root := cfg.PowercapRoot
	if root == "" {
		root = rapl.DefaultPowercapRoot
	}
	var readFile rapl.ReadFileFunc
	if cfg.ReadFile != nil {
		readFile = cfg.ReadFile
	}
	zones, err := rapl.DiscoverReader(root, readFile)
	if err != nil {
		return nil, fmt.Errorf("livemeter: %w", err)
	}
	m := &Meter{
		zones:    zones,
		model:    cfg.Model,
		readFile: cfg.ReadFile,
		retry:    cfg.Retry,
		pending:  map[int]pendingProc{},
	}
	m.zoneState = make([]zoneState, len(zones))
	for _, z := range zones {
		m.counters = append(m.counters, rapl.NewCounter(z.MaxEnergyRange()))
	}
	if m.model == nil {
		m.model = models.NewScaphandre().New(0)
	}
	var procRead procfs.ReadFileFunc
	if cfg.ReadFile != nil {
		procRead = cfg.ReadFile
	}
	m.fs = procfs.NewReader(cfg.ProcRoot, cfg.UserHz, procRead)
	m.tracker = procfs.NewTracker(m.fs)
	m.freqRoot = cfg.CPUFreqRoot
	if m.freqRoot == "" {
		m.freqRoot = procfs.DefaultCPUFreqRoot
	}
	return m, nil
}

// ErrNotPrimed is returned by the first Sample only: it primes the
// counters. A meter never reverts to it — later degradation is reported as
// ErrDroppedTick or ErrZoneVanished so callers can tell warm-up from fault.
var ErrNotPrimed = errors.New("livemeter: first sample primes the counters")

// ErrDroppedTick is returned by Sample on a primed meter when the tick
// could not be attributed (stalled clock, or no zone could be read). The
// interval is not lost: process activity and zone energy carry over and the
// next successful sample covers the whole gap.
var ErrDroppedTick = errors.New("livemeter: tick dropped, interval folded into next sample")

// ErrZoneVanished is returned by Sample when every RAPL zone has vanished
// (package hotplug, permission loss): the meter has nothing left to read.
// The disappearance of only some zones degrades the attribution instead
// (Attribution.Degraded, Health).
var ErrZoneVanished = errors.New("livemeter: all RAPL zones vanished")

// Sample reads all sources once and attributes the interval's power to the
// given PIDs. The first call primes the counters and returns ErrNotPrimed.
// now is injectable for tests; pass time.Now() in production.
func (m *Meter) Sample(now time.Time, pids []int) (Attribution, error) {
	obsTicksSampled.Inc()
	if !m.primed {
		m.start = now
	}
	at := now.Sub(m.start)

	// Phase 1: read every live zone, with retry for transient errors. No
	// counter state is touched yet, so a failure cannot leave some zones
	// advanced and others not (which would skew the next interval).
	readings := make([]uint64, len(m.zones))
	readOK := make([]bool, len(m.zones))
	live, okReads := 0, 0
	for i, z := range m.zones {
		st := &m.zoneState[i]
		if st.vanished {
			continue
		}
		uj, err := m.readZone(z)
		if err != nil {
			st.lastErr = err
			if errors.Is(err, iofs.ErrNotExist) {
				st.misses++
				if st.misses >= vanishAfter {
					st.vanished = true
					m.counters[i].Reset()
					obsZonesVanished.Inc()
					continue
				}
			}
			live++
			continue
		}
		st.misses = 0
		st.lastErr = nil
		readings[i], readOK[i] = uj, true
		live++
		okReads++
	}
	if live == 0 {
		return Attribution{At: at, ZonesVanished: len(m.zones)},
			fmt.Errorf("livemeter: %d zones gone: %w", len(m.zones), ErrZoneVanished)
	}

	// Phase 2: always consume the CPU tracker, so activity during degraded
	// ticks accumulates toward the next successful attribution instead of
	// being thrown away with the tick.
	for pid, d := range m.tracker.SampleDetailed(pids) {
		p := m.pending[pid]
		p.cpu += d.CPUTime
		if d.NumThreads > 0 {
			p.threads = d.NumThreads
		}
		m.pending[pid] = p
	}

	if !m.primed {
		for i := range m.zones {
			if readOK[i] {
				m.counters[i].Rebase(rapl.Reading{At: at, EnergyUJ: readings[i]})
			}
		}
		m.primed = true
		m.lastAt = at
		m.lastEmitAt = at
		return Attribution{At: at, ZonesLive: live, ZonesVanished: m.vanishedCount()}, ErrNotPrimed
	}

	degraded := okReads < live || m.vanishedCount() > 0
	if at <= m.lastAt {
		m.dropped++
		obsTicksDropped.Inc()
		return m.droppedAttribution(at, live), fmt.Errorf("livemeter: clock did not advance: %w", ErrDroppedTick)
	}
	m.lastAt = at
	if okReads == 0 {
		m.dropped++
		obsTicksDropped.Inc()
		return m.droppedAttribution(at, live), fmt.Errorf("livemeter: no zone readable: %w", ErrDroppedTick)
	}

	// Phase 3: fold each readable zone's energy since its own last accepted
	// reading — a zone that missed ticks contributes its whole backlog here,
	// so energy is conserved across the gap.
	interval := at - m.lastEmitAt
	var energy units.Joules
	measured := 0
	for i := range m.zones {
		if !readOK[i] {
			continue
		}
		e, dt, ok := m.counters[i].EnergyDelta(rapl.Reading{At: at, EnergyUJ: readings[i]})
		if !ok {
			// First accepted reading for this zone (it failed during the
			// priming tick): baseline set, energy flows from the next one.
			degraded = true
			continue
		}
		if e.Power(dt) > maxPlausiblePower {
			// Counter anomaly: a re-registered counter restarting from an
			// arbitrary value is indistinguishable from a wrap and would
			// book an absurd delta. EnergyDelta already re-based the zone
			// on this reading; discard the interval's energy.
			degraded = true
			obsZonesRebased.Inc()
			continue
		}
		energy += e
		measured++
	}
	if measured == 0 {
		m.dropped++
		obsTicksDropped.Inc()
		return m.droppedAttribution(at, live), fmt.Errorf("livemeter: no zone measurable yet: %w", ErrDroppedTick)
	}
	total := energy.Power(interval)

	attr := Attribution{
		At:             at,
		Interval:       interval,
		MachinePower:   total,
		Degraded:       degraded || m.dropped > 0,
		CoalescedTicks: m.dropped,
		ZonesLive:      live,
		ZonesVanished:  m.vanishedCount(),
	}
	// Best-effort frequency: cpu0's current frequency, 0 when unreadable.
	var freq units.Hertz
	if khz, err := procfs.ReadCurFreqKHzReader(m.freqRoot, 0, m.readFile); err == nil {
		freq = units.Hertz(khz) * units.KHz
	}
	roster, samples := m.column()
	est := m.model.Observe(models.Tick{
		At:           at,
		Interval:     interval,
		MachinePower: total,
		Freq:         freq,
		Degraded:     attr.Degraded,
		Roster:       roster,
		Samples:      samples,
	})
	if est != nil {
		// Only the roster's IDs are read back: a model returning IDs the
		// meter never issued is a bug in the model.
		attr.PerPID = make(map[int]units.Watts, len(est))
		for slot, id := range roster.IDs() {
			if w, ok := est[id]; ok {
				attr.PerPID[m.rosterPIDs[slot]] = w
			}
		}
	}
	m.lastEmitAt = at
	m.dropped = 0
	m.pending = make(map[int]pendingProc, len(m.pending))
	obsTicksAttributed.Inc()
	if attr.Degraded {
		obsTicksDegraded.Inc()
	}
	if obs.Enabled() && total > 0 {
		var assigned units.Watts
		for _, w := range attr.PerPID {
			assigned += w
		}
		obsCoverage.Set(float64(assigned / total))
	}
	return attr, nil
}

// idleRoster is the roster of every interval with no sampled process.
// Sharing it leaves the meter's PID roster, and with it the model's
// calibration context (PowerAPI's), untouched by idle intervals.
var idleRoster = machine.NewRoster(nil)

// column returns the interval's roster and its sample column of pending
// activity. The PID roster is rebuilt only when the PID set changes, so a
// steady set keeps its roster. A sampled PID is present by definition:
// one whose thread count is unknown joins with one thread.
func (m *Meter) column() (*machine.Roster, []models.ProcSample) {
	if len(m.pending) == 0 {
		return idleRoster, nil
	}
	if !m.samePIDs() {
		m.ids = m.ids[:0]
		for pid := range m.pending {
			m.ids = append(m.ids, strconv.Itoa(pid))
		}
		m.roster = machine.NewRoster(m.ids)
		m.rosterPIDs = m.rosterPIDs[:0]
		for _, id := range m.roster.IDs() {
			pid, _ := strconv.Atoi(id) // formatted by Itoa above
			m.rosterPIDs = append(m.rosterPIDs, pid)
		}
	}
	m.samples = m.samples[:0]
	for _, pid := range m.rosterPIDs {
		p := m.pending[pid]
		m.samples = append(m.samples, models.ProcSample{CPUTime: p.cpu, Threads: max(p.threads, 1)})
	}
	return m.roster, m.samples
}

// samePIDs reports whether the pending PIDs are exactly the roster's — an
// O(n) membership check, so a steady PID set neither sorts nor allocates.
func (m *Meter) samePIDs() bool {
	if m.roster == nil || len(m.rosterPIDs) != len(m.pending) {
		return false
	}
	for _, pid := range m.rosterPIDs {
		if _, ok := m.pending[pid]; !ok {
			return false
		}
	}
	return true
}

// droppedAttribution is the (non-nil-error) payload for a dropped tick.
func (m *Meter) droppedAttribution(at time.Duration, live int) Attribution {
	return Attribution{
		At:             at,
		Degraded:       true,
		CoalescedTicks: m.dropped,
		ZonesLive:      live,
		ZonesVanished:  m.vanishedCount(),
	}
}

// readZone reads one zone's energy counter under the retry policy.
// Not-exist errors are permanent (the file is gone, not busy).
func (m *Meter) readZone(z *rapl.PowercapZone) (uint64, error) {
	var uj uint64
	attempts := 0
	err := m.retry.Do(func() error {
		attempts++
		var err error
		uj, err = z.ReadEnergy()
		return err
	}, func(err error) bool { return errors.Is(err, iofs.ErrNotExist) })
	if attempts > 1 {
		obsRetryAttempts.Add(uint64(attempts - 1))
	}
	return uj, err
}

func (m *Meter) vanishedCount() int {
	n := 0
	for i := range m.zoneState {
		if m.zoneState[i].vanished {
			n++
		}
	}
	return n
}

// Health reports each zone's availability, in discovery order.
func (m *Meter) Health() []ZoneHealth {
	out := make([]ZoneHealth, len(m.zones))
	for i, z := range m.zones {
		st := m.zoneState[i]
		out[i] = ZoneHealth{
			Name:              z.Name(),
			Vanished:          st.vanished,
			ConsecutiveMisses: st.misses,
			LastErr:           st.lastErr,
		}
	}
	return out
}

// Zones returns the discovered zone names, sorted.
func (m *Meter) Zones() []string {
	out := make([]string, len(m.zones))
	for i, z := range m.zones {
		out[i] = z.Name()
	}
	sort.Strings(out)
	return out
}
