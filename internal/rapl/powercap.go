package rapl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// DefaultPowercapRoot is the Linux powercap sysfs mount point.
const DefaultPowercapRoot = "/sys/class/powercap"

// ErrNoRAPL is returned by Discover when the powercap tree exposes no
// intel-rapl zones (machine without RAPL, or an unsupported platform).
var ErrNoRAPL = errors.New("rapl: no intel-rapl zones found")

// ReadFileFunc abstracts os.ReadFile so a fault-injection harness (see
// internal/faultfs) can wrap the powercap tree's reads.
type ReadFileFunc func(string) ([]byte, error)

// PowercapZone reads one intel-rapl zone directory.
type PowercapZone struct {
	dir      string
	name     string
	maxRange uint64
	readFile ReadFileFunc
}

// Name implements Zone.
func (z *PowercapZone) Name() string { return z.name }

// MaxEnergyRange implements Zone.
func (z *PowercapZone) MaxEnergyRange() uint64 { return z.maxRange }

// ReadEnergy implements Zone by reading energy_uj.
func (z *PowercapZone) ReadEnergy() (uint64, error) {
	return readUint(z.readFile, filepath.Join(z.dir, "energy_uj"))
}

// OpenZone opens a single powercap zone directory, validating that it has
// the expected layout (name, energy_uj, max_energy_range_uj).
func OpenZone(dir string) (*PowercapZone, error) {
	return OpenZoneReader(dir, nil)
}

// OpenZoneReader is OpenZone with every file read routed through read
// (nil = os.ReadFile).
func OpenZoneReader(dir string, read ReadFileFunc) (*PowercapZone, error) {
	if read == nil {
		read = os.ReadFile
	}
	nameBytes, err := read(filepath.Join(dir, "name"))
	if err != nil {
		return nil, fmt.Errorf("rapl: zone %s: %w", dir, err)
	}
	maxRange, err := readUint(read, filepath.Join(dir, "max_energy_range_uj"))
	if err != nil {
		return nil, fmt.Errorf("rapl: zone %s: %w", dir, err)
	}
	z := &PowercapZone{
		dir:      dir,
		name:     strings.TrimSpace(string(nameBytes)),
		maxRange: maxRange,
		readFile: read,
	}
	if _, err := z.ReadEnergy(); err != nil {
		return nil, fmt.Errorf("rapl: zone %s: %w", dir, err)
	}
	return z, nil
}

// Discover finds the top-level intel-rapl package zones under root (pass
// DefaultPowercapRoot on a real machine). Sub-zones (core, uncore, dram)
// are skipped: the paper's models consume package power.
func Discover(root string) ([]*PowercapZone, error) {
	return DiscoverReader(root, nil)
}

// DiscoverReader is Discover with every zone file read routed through read
// (nil = os.ReadFile). Directory listing still uses the OS: discovery runs
// once at open time, while the injected reader covers the per-sample reads
// a long-running meter must survive.
func DiscoverReader(root string, read ReadFileFunc) ([]*PowercapZone, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		// No powercap tree at all: same meaning as an empty one.
		return nil, fmt.Errorf("%w (no %s)", ErrNoRAPL, root)
	}
	if err != nil {
		return nil, fmt.Errorf("rapl: %w", err)
	}
	var zones []*PowercapZone
	for _, e := range entries {
		n := e.Name()
		// Top-level package zones are intel-rapl:<n>; sub-zones have a
		// second colon segment (intel-rapl:<n>:<m>).
		if !strings.HasPrefix(n, "intel-rapl:") || strings.Count(n, ":") != 1 {
			continue
		}
		z, err := OpenZoneReader(filepath.Join(root, n), read)
		if err != nil {
			return nil, err
		}
		zones = append(zones, z)
	}
	if len(zones) == 0 {
		return nil, ErrNoRAPL
	}
	return zones, nil
}

func readUint(read ReadFileFunc, path string) (uint64, error) {
	if read == nil {
		read = os.ReadFile
	}
	b, err := read(path)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	return v, nil
}
