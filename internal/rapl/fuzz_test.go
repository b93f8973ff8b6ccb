package rapl

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzPowercapLayout materialises fake /sys/class/powercap trees — one fixed
// package zone with fuzzed file contents, a sibling sub-zone that must always
// be skipped, and a fuzzed extra entry — and checks discovery against an
// independent model of its accept/reject rules. Accepted zones are then fed
// through a Counter, mirroring internal/cpumodel/fuzz_test.go: whatever
// discovery lets in must survive downstream use.
func FuzzPowercapLayout(f *testing.F) {
	f.Add("package-0", "262143328850", "1234567", uint64(2345678), "intel-rapl:1")
	f.Add("package-0\n", "262143328850\n", "0\n", uint64(0), "intel-rapl:2:0")
	f.Add("", "not-a-number", "99", uint64(1), "dmi")
	f.Add("psys", "0", "18446744073709551615", uint64(5), "intel-rapl")
	f.Add("package-0", "1000", "999", uint64(3), "intel-rapl::")
	f.Fuzz(func(t *testing.T, name, maxRange, energy string, energy2 uint64, extra string) {
		root := t.TempDir()
		fillZone := func(dir, name, maxRange, energy string) {
			for file, content := range map[string]string{
				"name":                name,
				"max_energy_range_uj": maxRange,
				"energy_uj":           energy,
			} {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		writeZone := func(dir, name, maxRange, energy string) {
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			fillZone(dir, name, maxRange, energy)
		}
		mainDir := filepath.Join(root, "intel-rapl:0")
		writeZone(mainDir, name, maxRange, energy)
		// Sub-zones are sibling entries in the flat powercap directory, not
		// children of the package dir. This one is valid, so if the skip rule
		// ever regressed it would be discovered, not rejected.
		writeZone(filepath.Join(root, "intel-rapl:0:0"), "core", "1000", "1")

		// The fuzzed extra entry probes the discovery filter. Names the OS
		// rejects (separators, NUL, too long) just don't get created.
		extraIsZone := false
		if extra != "intel-rapl:0" && extra != "intel-rapl:0:0" &&
			extra == filepath.Base(extra) && extra != "" && extra != "." && extra != ".." {
			dir := filepath.Join(root, extra)
			if err := os.Mkdir(dir, 0o755); err == nil {
				fillZone(dir, "package-9", "5000", "42")
				extraIsZone = strings.HasPrefix(extra, "intel-rapl:") && strings.Count(extra, ":") == 1
			}
		}

		_, maxErr := strconv.ParseUint(strings.TrimSpace(maxRange), 10, 64)
		_, energyErr := strconv.ParseUint(strings.TrimSpace(energy), 10, 64)
		mainValid := maxErr == nil && energyErr == nil

		zones, err := Discover(root)
		if !mainValid {
			if err == nil {
				t.Fatalf("discovery accepted zone with max=%q energy=%q", maxRange, energy)
			}
			return
		}
		if err != nil {
			t.Fatalf("discovery rejected a well-formed tree: %v", err)
		}
		want := 1
		if extraIsZone {
			want = 2
		}
		if len(zones) != want {
			dirs := make([]string, len(zones))
			for i, z := range zones {
				dirs[i] = z.dir
			}
			t.Fatalf("discovered %d zones %v, want %d (extra=%q)", len(zones), dirs, want, extra)
		}

		var main *PowercapZone
		for _, z := range zones {
			if z.dir == mainDir {
				main = z
			}
		}
		if main == nil {
			t.Fatalf("package zone %s not among discovered zones", mainDir)
		}
		if got := main.Name(); got != strings.TrimSpace(name) {
			t.Errorf("zone name %q, want trimmed %q", got, name)
		}

		// Downstream use: two readings through a Counter must yield a
		// finite, non-negative energy delta whatever the fuzzed values are.
		e1, err := main.ReadEnergy()
		if err != nil {
			t.Fatalf("accepted zone failed ReadEnergy: %v", err)
		}
		c := NewCounter(main.MaxEnergyRange())
		c.Rebase(Reading{At: time.Second, EnergyUJ: e1})
		if err := os.WriteFile(filepath.Join(mainDir, "energy_uj"), []byte(strconv.FormatUint(energy2, 10)), 0o644); err != nil {
			t.Fatal(err)
		}
		e2, err := main.ReadEnergy()
		if err != nil {
			t.Fatal(err)
		}
		j, dt, ok := c.EnergyDelta(Reading{At: 2 * time.Second, EnergyUJ: e2})
		if !ok || dt != time.Second {
			t.Fatalf("counter rejected an advancing reading (ok=%v dt=%v)", ok, dt)
		}
		if float64(j) < 0 || math.IsNaN(float64(j)) || math.IsInf(float64(j), 0) {
			t.Fatalf("energy delta %v J from counter %d→%d (range %d)", j, e1, e2, main.MaxEnergyRange())
		}
	})
}
