package livemeter

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"powerdiv/internal/faultfs"
	"powerdiv/internal/models"
	"powerdiv/internal/rapl"
	"powerdiv/internal/retry"
	"powerdiv/internal/units"
)

const bigRange = 262143328850 // a real package zone's µJ range

// newHost builds a synthetic host with the given zones.
func newHost(t *testing.T, zones ...faultfs.HostZoneSpec) *faultfs.Host {
	t.Helper()
	if len(zones) == 0 {
		zones = []faultfs.HostZoneSpec{{MaxRangeUJ: bigRange}}
	}
	h, err := faultfs.NewHost(t.TempDir(), t.TempDir(), zones)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// noSleep is a retry policy that does not wait between attempts.
func noSleep(attempts int) retry.Policy {
	return retry.Policy{Attempts: attempts, Sleep: func(time.Duration) {}}
}

func openMeter(t *testing.T, h *faultfs.Host, inj *faultfs.Injector) *Meter {
	t.Helper()
	cfg := Config{PowercapRoot: h.CapRoot, ProcRoot: h.ProcRoot, Retry: noSleep(3)}
	if inj != nil {
		cfg.ReadFile = inj.ReadFile
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpenNoRAPL(t *testing.T) {
	_, err := Open(Config{PowercapRoot: t.TempDir(), ProcRoot: t.TempDir()})
	if !errors.Is(err, rapl.ErrNoRAPL) {
		t.Errorf("err = %v, want ErrNoRAPL", err)
	}
}

func TestMeterAttribution(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	h.SetProcJiffies(11, 0)
	m := openMeter(t, h, nil)

	base := time.Unix(1000, 0)
	if _, err := m.Sample(base, []int{10, 11}); !errors.Is(err, ErrNotPrimed) {
		t.Fatalf("first sample err = %v, want ErrNotPrimed", err)
	}

	// Over 1 s: 40 J consumed; pid 10 used 2× the CPU of pid 11.
	h.AddEnergy(0, 40)
	h.SetProcJiffies(10, 100) // 1 s
	h.SetProcJiffies(11, 50)  // 0.5 s
	attr, err := m.Sample(base.Add(time.Second), []int{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(attr.MachinePower)-40) > 1e-9 {
		t.Errorf("machine power = %v, want 40", attr.MachinePower)
	}
	if attr.Degraded {
		t.Error("clean interval flagged degraded")
	}
	if attr.PerPID == nil {
		t.Fatal("no attribution")
	}
	if math.Abs(float64(attr.PerPID[10])-40*2.0/3) > 1e-9 {
		t.Errorf("pid 10 = %v, want 26.67", attr.PerPID[10])
	}
	if math.Abs(float64(attr.PerPID[11])-40/3.0) > 1e-9 {
		t.Errorf("pid 11 = %v, want 13.33", attr.PerPID[11])
	}
}

func TestMeterIdleInterval(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	m := openMeter(t, h, nil)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})
	// Energy flows but the process used no CPU: machine power is known,
	// attribution is nil.
	h.AddEnergy(0, 10)
	attr, err := m.Sample(base.Add(time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if attr.PerPID != nil {
		t.Errorf("attribution for idle interval = %v, want nil", attr.PerPID)
	}
	if math.Abs(float64(attr.MachinePower)-10) > 1e-9 {
		t.Errorf("machine power = %v, want 10", attr.MachinePower)
	}
}

func TestMeterCounterWrap(t *testing.T) {
	// Start the counter 5 J before its wrap point and deliver 10 J.
	h := newHost(t, faultfs.HostZoneSpec{MaxRangeUJ: bigRange, StartUJ: bigRange - 5_000_000})
	h.SetProcJiffies(10, 0)
	m := openMeter(t, h, nil)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})
	h.AddEnergy(0, 10)
	h.SetProcJiffies(10, 100)
	if h.Wraps(0) != 1 {
		t.Fatalf("wraps = %d, want 1", h.Wraps(0))
	}
	attr, err := m.Sample(base.Add(time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(attr.MachinePower)-10) > 1e-9 {
		t.Errorf("wrapped machine power = %v, want 10", attr.MachinePower)
	}
}

// A stalled clock drops the tick with ErrDroppedTick — not ErrNotPrimed —
// and the interval's energy and CPU time are attributed once time advances.
func TestMeterStalledClock(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	m := openMeter(t, h, nil)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})

	h.AddEnergy(0, 20)
	h.SetProcJiffies(10, 100)
	_, err := m.Sample(base, []int{10})
	if !errors.Is(err, ErrDroppedTick) {
		t.Fatalf("same-instant sample err = %v, want ErrDroppedTick", err)
	}
	if errors.Is(err, ErrNotPrimed) {
		t.Fatal("stalled clock reported as ErrNotPrimed: callers cannot tell warm-up from degradation")
	}

	// Clock recovers after 2 s total; another 20 J and 100 jiffies flow.
	h.AddEnergy(0, 20)
	h.SetProcJiffies(10, 200)
	attr, err := m.Sample(base.Add(2*time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(attr.MachinePower)-20) > 1e-9 {
		t.Errorf("machine power = %v, want 20 (40 J over 2 s)", attr.MachinePower)
	}
	if attr.CoalescedTicks != 1 || !attr.Degraded {
		t.Errorf("CoalescedTicks = %d, Degraded = %v; want 1, true", attr.CoalescedTicks, attr.Degraded)
	}
	if math.Abs(float64(attr.PerPID[10])-20) > 1e-9 {
		t.Errorf("pid 10 = %v, want all 20 W", attr.PerPID[10])
	}
}

// A whole-tick read failure must not lose the interval: process CPU-time
// deltas and zone energy carry over to the next successful sample.
func TestDroppedTickCarriesActivity(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	h.SetProcJiffies(11, 0)
	inj := faultfs.NewInjector(1, 0)
	m := openMeter(t, h, inj)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10, 11})

	// Tick 2: 30 J, pid 10 busy; every energy read fails (burst outlasts
	// the 3-attempt retry budget).
	h.AddEnergy(0, 30)
	h.AddProcJiffies(10, 100)
	inj.FailNext("energy_uj", 3)
	_, err := m.Sample(base.Add(time.Second), []int{10, 11})
	if !errors.Is(err, ErrDroppedTick) {
		t.Fatalf("err = %v, want ErrDroppedTick", err)
	}

	// Tick 3: another 30 J, pid 11 busy. The attribution must cover both
	// intervals: 60 J over 2 s, split evenly between the pids.
	h.AddEnergy(0, 30)
	h.AddProcJiffies(11, 100)
	attr, err := m.Sample(base.Add(2*time.Second), []int{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(attr.MachinePower)-30) > 1e-9 {
		t.Errorf("machine power = %v, want 30 (60 J over 2 s)", attr.MachinePower)
	}
	if attr.CoalescedTicks != 1 {
		t.Errorf("CoalescedTicks = %d, want 1", attr.CoalescedTicks)
	}
	for _, pid := range []int{10, 11} {
		if math.Abs(float64(attr.PerPID[pid])-15) > 1e-9 {
			t.Errorf("pid %d = %v, want 15 W (dropped tick's activity must not be lost)", pid, attr.PerPID[pid])
		}
	}
}

// One zone failing must not advance the sibling zones' counters into an
// inconsistent state: the survivors are attributed now, the failed zone's
// backlog arrives with its next successful read, and total energy balances.
func TestZoneErrorKeepsSiblingsConsistent(t *testing.T) {
	h := newHost(t,
		faultfs.HostZoneSpec{MaxRangeUJ: bigRange},
		faultfs.HostZoneSpec{MaxRangeUJ: bigRange},
	)
	h.SetProcJiffies(10, 0)
	inj := faultfs.NewInjector(1, 0)
	m := openMeter(t, h, inj)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})

	// Tick 2: both zones deliver 10 J; zone 1's reads all fail.
	h.AddEnergy(0, 10)
	h.AddEnergy(1, 10)
	h.AddProcJiffies(10, 100)
	inj.FailNext(h.ZoneDir(1), 3)
	attr, err := m.Sample(base.Add(time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if !attr.Degraded {
		t.Error("zone-failure tick not flagged degraded")
	}
	if math.Abs(float64(attr.MachinePower)-10) > 1e-9 {
		t.Errorf("degraded machine power = %v, want 10 (zone 0 only)", attr.MachinePower)
	}

	// Tick 3: both zones deliver another 10 J and zone 1 recovers: its
	// 20 J backlog spans both intervals.
	h.AddEnergy(0, 10)
	h.AddEnergy(1, 10)
	h.AddProcJiffies(10, 100)
	attr2, err := m.Sample(base.Add(2*time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	// Energy balance: attributed power × interval over both ticks equals
	// the 40 J delivered in total.
	got := float64(attr.MachinePower)*1 + float64(attr2.MachinePower)*1
	if math.Abs(got-40) > 1e-9 {
		t.Errorf("total attributed energy = %v J, want 40 (none lost, none double-counted)", got)
	}
}

// A vanished zone degrades the meter to the survivors; when every zone is
// gone the meter reports ErrZoneVanished.
func TestZoneVanishMidRun(t *testing.T) {
	h := newHost(t,
		faultfs.HostZoneSpec{MaxRangeUJ: bigRange},
		faultfs.HostZoneSpec{MaxRangeUJ: bigRange},
	)
	h.SetProcJiffies(10, 0)
	m := openMeter(t, h, nil)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})

	if err := h.RemoveZone(1); err != nil {
		t.Fatal(err)
	}
	// Two consecutive not-exist failures mark the zone vanished; both
	// ticks keep attributing from the survivor.
	for i := 1; i <= 3; i++ {
		h.AddEnergy(0, 10)
		h.AddProcJiffies(10, 100)
		attr, err := m.Sample(base.Add(time.Duration(i)*time.Second), []int{10})
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if !attr.Degraded {
			t.Errorf("tick %d not degraded after zone removal", i)
		}
		if math.Abs(float64(attr.MachinePower)-10) > 1e-9 {
			t.Errorf("tick %d machine power = %v, want 10", i, attr.MachinePower)
		}
	}
	var vanished int
	for _, zh := range m.Health() {
		if zh.Vanished {
			vanished++
		}
	}
	if vanished != 1 {
		t.Errorf("Health reports %d vanished zones, want 1", vanished)
	}

	// The last zone goes too: the meter has nothing left to read.
	if err := h.RemoveZone(0); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 4; i <= 5; i++ {
		_, err = m.Sample(base.Add(time.Duration(i)*time.Second), []int{10})
	}
	if !errors.Is(err, ErrZoneVanished) {
		t.Errorf("err = %v, want ErrZoneVanished", err)
	}
	if errors.Is(err, ErrNotPrimed) {
		t.Error("all-zones-gone reported as ErrNotPrimed")
	}
}

// A counter that restarts from an arbitrary value (re-registration) must be
// re-based, not booked as a near-full-range wrap delta.
func TestCounterAnomalyGuard(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	m := openMeter(t, h, nil)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})
	h.AddEnergy(0, 10)
	m.Sample(base.Add(time.Second), []int{10})

	// The counter jumps backwards by 100 J — as a wrap this would read as
	// ≈262 kJ in one second.
	if err := h.CorruptEnergy(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	h.AddProcJiffies(10, 100)
	_, err := m.Sample(base.Add(2*time.Second), []int{10})
	if !errors.Is(err, ErrDroppedTick) {
		t.Fatalf("anomalous tick err = %v, want ErrDroppedTick", err)
	}

	// Metering resumes correctly from the new baseline.
	h.AddEnergy(0, 10)
	h.AddProcJiffies(10, 100)
	attr, err := m.Sample(base.Add(3*time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	// 10 J measurable over the 2 s since the last emit (the anomalous
	// interval's energy is unknowable and discarded).
	if math.Abs(float64(attr.MachinePower)-5) > 1e-9 {
		t.Errorf("post-anomaly machine power = %v, want 5", attr.MachinePower)
	}
}

// Transient read errors within the retry budget are absorbed entirely: the
// sample is clean, not degraded.
func TestRetryAbsorbsTransientErrors(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	inj := faultfs.NewInjector(1, 0)
	m := openMeter(t, h, inj)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})

	h.AddEnergy(0, 10)
	h.AddProcJiffies(10, 100)
	inj.FailNext("energy_uj", 2) // 2 failures < 3 attempts
	attr, err := m.Sample(base.Add(time.Second), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Degraded {
		t.Error("retried-and-recovered tick flagged degraded")
	}
	if math.Abs(float64(attr.MachinePower)-10) > 1e-9 {
		t.Errorf("machine power = %v, want 10", attr.MachinePower)
	}
	if inj.Stats().InjectedErrors != 2 {
		t.Errorf("injected errors = %d, want 2", inj.Stats().InjectedErrors)
	}
}

// PID churn: a process that exits during a dropped tick still gets its
// accumulated activity attributed, and a reused PID does not inherit the
// old process's counters.
func TestPIDChurn(t *testing.T) {
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	h.SetProcJiffies(11, 0)
	inj := faultfs.NewInjector(1, 0)
	m := openMeter(t, h, inj)
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10, 11})

	// Tick 2 drops; pid 10 burns 1 s of CPU and then exits.
	h.AddEnergy(0, 20)
	h.AddProcJiffies(10, 100)
	inj.FailNext("energy_uj", 3)
	if _, err := m.Sample(base.Add(time.Second), []int{10, 11}); !errors.Is(err, ErrDroppedTick) {
		t.Fatalf("err = %v, want ErrDroppedTick", err)
	}
	if err := h.RemoveProc(10); err != nil {
		t.Fatal(err)
	}

	// Tick 3: pid 11 burns 1 s. Pid 10's pending second must still be
	// attributed: the pids split evenly.
	h.AddEnergy(0, 20)
	h.AddProcJiffies(11, 100)
	attr, err := m.Sample(base.Add(2*time.Second), []int{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(attr.PerPID[10])-10) > 1e-9 || math.Abs(float64(attr.PerPID[11])-10) > 1e-9 {
		t.Errorf("PerPID = %v, want 10 W each", attr.PerPID)
	}

	// PID 10 is reused by a fresh process with a lower jiffy count: the
	// tracker must start it from scratch, not book a negative delta.
	h.SetProcJiffies(10, 5)
	h.AddEnergy(0, 20)
	attr, err = m.Sample(base.Add(3*time.Second), []int{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if w := attr.PerPID[10]; w != 0 {
		if math.IsNaN(float64(w)) || w < 0 {
			t.Errorf("reused pid 10 power = %v", w)
		}
	}
}

func TestMeterZones(t *testing.T) {
	h := newHost(t)
	m := openMeter(t, h, nil)
	zones := m.Zones()
	if len(zones) != 1 || zones[0] != "package-0" {
		t.Errorf("zones = %v", zones)
	}
}

func TestMeterWithFrequencyAndModel(t *testing.T) {
	// A residual-aware model receives the frequency read from a fake
	// cpufreq tree and the per-process thread counts.
	h := newHost(t)
	h.SetProcJiffies(10, 0)
	freqRoot := t.TempDir()
	cpuDir := filepath.Join(freqRoot, "cpu0", "cpufreq")
	if err := os.MkdirAll(cpuDir, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(cpuDir, "scaling_cur_freq"), []byte("3600000\n"), 0o644)

	probe := &tickProbe{}
	m, err := Open(Config{
		PowercapRoot: h.CapRoot,
		ProcRoot:     h.ProcRoot,
		CPUFreqRoot:  freqRoot,
		Model:        probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	m.Sample(base, []int{10})
	h.AddEnergy(0, 40)
	h.SetProcJiffies(10, 100)
	if _, err := m.Sample(base.Add(time.Second), []int{10}); err != nil {
		t.Fatal(err)
	}
	if probe.last.Freq != 3.6*units.GHz {
		t.Errorf("model saw freq %v, want 3.6 GHz", probe.last.Freq)
	}
	if probe.last.Degraded {
		t.Error("model saw a clean tick flagged degraded")
	}
	if ids := probe.last.Roster.IDs(); len(ids) != 1 || ids[0] != "10" || len(probe.last.Samples) != 1 {
		t.Fatalf("model saw roster %v with %d samples, want [10] and 1", ids, len(probe.last.Samples))
	}
	ps := probe.last.Samples[0]
	if ps.Threads != 1 {
		t.Errorf("model saw %d threads, want 1", ps.Threads)
	}
	if ps.CPUTime != units.CPUTime(time.Second) {
		t.Errorf("model saw cpu %v, want 1s", ps.CPUTime)
	}
}

// tickProbe records the last tick it observed.
type tickProbe struct{ last models.Tick }

func (p *tickProbe) Name() string { return "probe" }
func (p *tickProbe) Observe(t models.Tick) map[string]units.Watts {
	p.last = t
	return nil
}

// writeStat writes pid's stat file with the given cumulative utime and
// num_threads (stat field 20).
func writeStat(t *testing.T, procRoot string, pid int, jiffies uint64, threads int) {
	t.Helper()
	dir := filepath.Join(procRoot, strconv.Itoa(pid))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%d (worker) R 1 1 1 0 -1 0 0 0 0 0 %d 0 0 0 20 0 %d 0 0 0 0\n", pid, jiffies, threads)
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMeterKeepsRosterAcrossIdleInterval pins the meter's PID-roster rules
// under PowerAPI, whose calibration context is the roster and its present
// set: PIDs {10, 11} → an idle interval (no sampled PID) → {10, 11} again
// does not relearn, because an idle interval goes over a shared empty
// roster and leaves the PID roster alone. PID 11's stat reports 0 threads;
// it is still attributed, running one thread.
func TestMeterKeepsRosterAcrossIdleInterval(t *testing.T) {
	h := newHost(t)
	cfg := models.DefaultPowerAPIConfig()
	cfg.LearnWindow = 2 * time.Second
	cfg.Deterministic = true
	m, err := Open(Config{
		PowercapRoot: h.CapRoot,
		ProcRoot:     h.ProcRoot,
		Model:        models.NewPowerAPI(cfg).New(1),
		Retry:        noSleep(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pids := []int{10, 11}
	threads := map[int]int{10: 2, 11: 0}
	jiffies := map[int]uint64{}
	base := time.Unix(1000, 0)
	step := func(i int, sampled []int) Attribution {
		t.Helper()
		h.AddEnergy(0, 30)
		for _, pid := range pids {
			jiffies[pid] += uint64(pid) * 4
			writeStat(t, h.ProcRoot, pid, jiffies[pid], threads[pid])
		}
		attr, err := m.Sample(base.Add(time.Duration(i)*time.Second), sampled)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		return attr
	}
	attributed := func(i int, attr Attribution) {
		t.Helper()
		for _, pid := range pids {
			if w, ok := attr.PerPID[pid]; !ok || w <= 0 {
				t.Fatalf("sample %d: pid %d attributed %v (present %v), want > 0", i, pid, w, ok)
			}
		}
	}

	for _, pid := range pids {
		writeStat(t, h.ProcRoot, pid, 0, threads[pid])
	}
	if _, err := m.Sample(base, pids); !errors.Is(err, ErrNotPrimed) {
		t.Fatalf("prime err = %v", err)
	}
	var attr Attribution
	i := 0
	for attr.PerPID == nil {
		if i++; i > 5 {
			t.Fatal("PowerAPI never finished learning")
		}
		attr = step(i, pids)
	}
	attributed(i, attr)
	if attr := step(i+1, nil); attr.PerPID != nil {
		t.Fatalf("idle interval attributed %v", attr.PerPID)
	}
	// The tracker re-reads both PIDs' baselines after the idle interval,
	// so the next interval carries no CPU time and no estimate.
	step(i+2, pids)
	attributed(i+3, step(i+3, pids))
}
