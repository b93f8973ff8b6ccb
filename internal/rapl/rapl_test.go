package rapl

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/workload"
)

func TestCounterBasicPower(t *testing.T) {
	c := NewCounter(0)
	if _, ok := c.Power(Reading{At: 0, EnergyUJ: 1_000_000}); ok {
		t.Error("first reading produced power")
	}
	// +50 J over 1 s = 50 W.
	p, ok := c.Power(Reading{At: time.Second, EnergyUJ: 51_000_000})
	if !ok {
		t.Fatal("second reading produced no power")
	}
	if math.Abs(float64(p)-50) > 1e-9 {
		t.Errorf("power = %v, want 50", p)
	}
}

func TestCounterWraparound(t *testing.T) {
	c := NewCounter(1_000_000) // 1 J range
	c.Power(Reading{At: 0, EnergyUJ: 900_000})
	// Wraps: 900000 → 100000 means 200000 µJ consumed.
	p, ok := c.Power(Reading{At: time.Second, EnergyUJ: 100_000})
	if !ok {
		t.Fatal("no power after wrap")
	}
	if math.Abs(float64(p)-0.2) > 1e-9 {
		t.Errorf("wrapped power = %v, want 0.2", p)
	}
}

func TestCounterNonAdvancingTime(t *testing.T) {
	c := NewCounter(0)
	c.Power(Reading{At: time.Second, EnergyUJ: 0})
	if _, ok := c.Power(Reading{At: time.Second, EnergyUJ: 100}); ok {
		t.Error("non-advancing timestamp produced power")
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter(0)
	c.Power(Reading{At: 0, EnergyUJ: 0})
	c.Reset()
	if _, ok := c.Power(Reading{At: time.Second, EnergyUJ: 100}); ok {
		t.Error("first reading after reset produced power")
	}
}

func simRun(t *testing.T) *machine.Run {
	t.Helper()
	w, _ := workload.StressByName("int64")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel()}, []machine.Proc{
		{ID: "p", Workload: w, Threads: 2},
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSimZoneRoundTrip(t *testing.T) {
	run := simRun(t)
	z := NewSimZone(run, 12345)
	s, err := z.Trace(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The counter-derived power must match the simulator's power:
	// constant-load run → constant power 8+28+2×6.15 = 48.3 W.
	if math.Abs(s.Mean()-48.3) > 0.01 {
		t.Errorf("round-trip mean = %v, want 48.3", s.Mean())
	}
	if spread := s.Max() - s.Min(); spread > 0.01 {
		t.Errorf("round-trip spread = %v, want ≈0", spread)
	}
}

func TestSimZoneWraparound(t *testing.T) {
	run := simRun(t)
	// Start the counter just below the wrap point so it wraps mid-run.
	start := DefaultMaxEnergyRange - 100_000_000 // 100 J before wrapping
	z := NewSimZone(run, start)
	s, err := z.Trace(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean()-48.3) > 0.01 {
		t.Errorf("post-wrap mean = %v, want 48.3", s.Mean())
	}
}

func TestSimZoneAdvanceAndRead(t *testing.T) {
	run := simRun(t)
	z := NewSimZone(run, 0)
	e0, err := z.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	z.Advance(time.Second)
	e1, err := z.ReadEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// 48.3 W × 1 s = 48.3 J = 48.3e6 µJ.
	if math.Abs(float64(e1-e0)-48.3e6) > 1e5 {
		t.Errorf("1 s delta = %d µJ, want ≈48.3e6", e1-e0)
	}
}

func TestSimZoneTraceBadPeriod(t *testing.T) {
	z := NewSimZone(simRun(t), 0)
	if _, err := z.Trace(0); err == nil {
		t.Error("zero period accepted")
	}
}

// writeFakePowercap builds a fake /sys/class/powercap tree.
func writeFakePowercap(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	zones := map[string]struct {
		name   string
		energy string
	}{
		"intel-rapl:0":   {"package-0", "123456789"},
		"intel-rapl:1":   {"package-1", "987654321"},
		"intel-rapl:0:0": {"core", "111"},     // sub-zone: skipped
		"intel-rapl:0:1": {"dram", "222"},     // sub-zone: skipped
		"other-device":   {"not-rapl", "333"}, // unrelated: skipped
	}
	for dir, z := range zones {
		p := filepath.Join(root, dir)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		must := func(name, content string) {
			if err := os.WriteFile(filepath.Join(p, name), []byte(content+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		must("name", z.name)
		must("energy_uj", z.energy)
		must("max_energy_range_uj", "262143328850")
	}
	return root
}

func TestDiscoverPowercap(t *testing.T) {
	root := writeFakePowercap(t)
	zones, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 2 {
		t.Fatalf("found %d zones, want 2 package zones", len(zones))
	}
	names := map[string]bool{}
	for _, z := range zones {
		names[z.Name()] = true
		if z.MaxEnergyRange() != 262143328850 {
			t.Errorf("zone %s max range = %d", z.Name(), z.MaxEnergyRange())
		}
		if _, err := z.ReadEnergy(); err != nil {
			t.Errorf("zone %s read: %v", z.Name(), err)
		}
	}
	if !names["package-0"] || !names["package-1"] {
		t.Errorf("zone names = %v", names)
	}
}

func TestDiscoverNoRAPL(t *testing.T) {
	if _, err := Discover(t.TempDir()); !errors.Is(err, ErrNoRAPL) {
		t.Errorf("empty tree error = %v, want ErrNoRAPL", err)
	}
	// A missing root means the same as an empty one: no RAPL.
	if _, err := Discover(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoRAPL) {
		t.Errorf("missing root error = %v, want ErrNoRAPL", err)
	}
}

func TestOpenZoneErrors(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "intel-rapl:0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Missing name file.
	if _, err := OpenZone(dir); err == nil {
		t.Error("zone without name accepted")
	}
	os.WriteFile(filepath.Join(dir, "name"), []byte("package-0\n"), 0o644)
	// Missing max range.
	if _, err := OpenZone(dir); err == nil {
		t.Error("zone without max range accepted")
	}
	os.WriteFile(filepath.Join(dir, "max_energy_range_uj"), []byte("garbage\n"), 0o644)
	if _, err := OpenZone(dir); err == nil {
		t.Error("zone with garbage max range accepted")
	}
	os.WriteFile(filepath.Join(dir, "max_energy_range_uj"), []byte("1000\n"), 0o644)
	// Missing energy file.
	if _, err := OpenZone(dir); err == nil {
		t.Error("zone without energy accepted")
	}
	os.WriteFile(filepath.Join(dir, "energy_uj"), []byte("42\n"), 0o644)
	z, err := OpenZone(dir)
	if err != nil {
		t.Fatalf("complete zone rejected: %v", err)
	}
	e, err := z.ReadEnergy()
	if err != nil || e != 42 {
		t.Errorf("ReadEnergy = %d, %v", e, err)
	}
}

func TestPowercapZoneWithCounter(t *testing.T) {
	// End-to-end: sysfs zone + Counter = a live power meter.
	root := writeFakePowercap(t)
	dir := filepath.Join(root, "intel-rapl:0")
	z, err := OpenZone(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(z.MaxEnergyRange())
	e0, _ := z.ReadEnergy()
	c.Power(Reading{At: 0, EnergyUJ: e0})
	// Simulate 30 W for 2 s by rewriting the file.
	os.WriteFile(filepath.Join(dir, "energy_uj"), []byte("183456789\n"), 0o644)
	e1, _ := z.ReadEnergy()
	p, ok := c.Power(Reading{At: 2 * time.Second, EnergyUJ: e1})
	if !ok {
		t.Fatal("no power")
	}
	if math.Abs(float64(p)-30) > 1e-9 {
		t.Errorf("power = %v, want 30", p)
	}
}

func TestCounterEnergyDelta(t *testing.T) {
	c := NewCounter(0)
	if _, _, ok := c.EnergyDelta(Reading{At: 0, EnergyUJ: 1_000_000}); ok {
		t.Error("first reading produced a delta")
	}
	j, dt, ok := c.EnergyDelta(Reading{At: time.Second, EnergyUJ: 11_000_000})
	if !ok || math.Abs(float64(j)-10) > 1e-9 || dt != time.Second {
		t.Errorf("delta = (%v, %v, %v), want (10 J, 1s, true)", j, dt, ok)
	}
}

// A rejected (non-advancing) reading must leave the baseline intact so the
// zone's energy accumulates toward the next accepted reading — the property
// the live meter's dropped-tick handling relies on.
func TestCounterEnergyDeltaConservedAcrossRejection(t *testing.T) {
	c := NewCounter(0)
	c.EnergyDelta(Reading{At: 0, EnergyUJ: 0})
	if _, _, ok := c.EnergyDelta(Reading{At: 0, EnergyUJ: 5_000_000}); ok {
		t.Fatal("non-advancing reading accepted")
	}
	j, dt, ok := c.EnergyDelta(Reading{At: 2 * time.Second, EnergyUJ: 20_000_000})
	if !ok {
		t.Fatal("no delta")
	}
	if math.Abs(float64(j)-20) > 1e-9 || dt != 2*time.Second {
		t.Errorf("delta = (%v, %v), want (20 J, 2s): rejected reading lost energy", j, dt)
	}
}

func TestCounterEnergyDeltaWrap(t *testing.T) {
	c := NewCounter(1_000_000) // 1 J range
	c.EnergyDelta(Reading{At: 0, EnergyUJ: 900_000})
	j, _, ok := c.EnergyDelta(Reading{At: time.Second, EnergyUJ: 100_000})
	if !ok || math.Abs(float64(j)-0.2) > 1e-9 {
		t.Errorf("wrapped delta = (%v, %v), want 0.2 J", j, ok)
	}
}

// Rebase re-baselines without booking energy: the next delta starts from
// the rebased reading.
func TestCounterRebase(t *testing.T) {
	c := NewCounter(0)
	c.EnergyDelta(Reading{At: 0, EnergyUJ: 50_000_000})
	c.Rebase(Reading{At: time.Second, EnergyUJ: 0})
	j, dt, ok := c.EnergyDelta(Reading{At: 2 * time.Second, EnergyUJ: 3_000_000})
	if !ok || math.Abs(float64(j)-3) > 1e-9 || dt != time.Second {
		t.Errorf("post-rebase delta = (%v, %v, %v), want (3 J, 1s, true)", j, dt, ok)
	}
}

// DiscoverReader routes every zone file read through the injected reader,
// the seam the fault-injection harness attacks.
func TestDiscoverReaderInjected(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "intel-rapl:0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"name": "package-0\n", "max_energy_range_uj": "1000\n", "energy_uj": "5\n"}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	zones, err := DiscoverReader(root, func(path string) ([]byte, error) {
		reads++
		return os.ReadFile(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 || reads == 0 {
		t.Fatalf("zones = %d, reads = %d", len(zones), reads)
	}
	before := reads
	if uj, err := zones[0].ReadEnergy(); err != nil || uj != 5 {
		t.Errorf("ReadEnergy = (%d, %v)", uj, err)
	}
	if reads != before+1 {
		t.Errorf("ReadEnergy bypassed the injected reader (reads %d → %d)", before, reads)
	}
	boom := errors.New("boom")
	_, err = OpenZoneReader(dir, func(string) ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("OpenZoneReader err = %v, want boom", err)
	}
}
