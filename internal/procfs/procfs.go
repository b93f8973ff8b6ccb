// Package procfs reads per-process CPU time from a Linux /proc
// filesystem — the scheduler metrics CPU-time-share models
// (Scaphandre) divide power with. The root directory is a parameter so
// tests run against a synthetic tree and the live meter runs against /proc.
package procfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"powerdiv/internal/units"
)

// DefaultRoot is the real procfs mount point.
const DefaultRoot = "/proc"

// DefaultHz is the kernel's USER_HZ: jiffies per second for the utime/stime
// fields. Virtually every Linux build uses 100.
const DefaultHz = 100

// ReadFileFunc abstracts os.ReadFile so a fault-injection harness (see
// internal/faultfs) can wrap the proc tree's reads.
type ReadFileFunc func(string) ([]byte, error)

// FS reads a procfs tree.
type FS struct {
	root     string
	hz       int
	readFile ReadFileFunc
}

// New returns an FS over the given root ("" = /proc) with the given
// USER_HZ (0 = 100).
func New(root string, hz int) *FS {
	return NewReader(root, hz, nil)
}

// NewReader is New with every file read routed through read
// (nil = os.ReadFile).
func NewReader(root string, hz int, read ReadFileFunc) *FS {
	if root == "" {
		root = DefaultRoot
	}
	if hz <= 0 {
		hz = DefaultHz
	}
	if read == nil {
		read = os.ReadFile
	}
	return &FS{root: root, hz: hz, readFile: read}
}

// jiffies converts a jiffy count to CPU time. Counts large enough to
// overflow the Duration multiply (≈292 years of CPU time) only occur in
// corrupt stat files; they are clamped so a hostile value cannot turn into
// a negative CPU time downstream.
func (fs *FS) jiffies(n uint64) units.CPUTime {
	const maxJiffies = uint64(math.MaxInt64 / time.Second)
	if n > maxJiffies {
		n = maxJiffies
	}
	return units.CPUTime(time.Duration(n) * time.Second / time.Duration(fs.hz))
}

// ProcCPU is one process's cumulative CPU time split.
type ProcCPU struct {
	PID     int
	Command string
	// User and System are cumulative utime/stime.
	User   units.CPUTime
	System units.CPUTime
	// NumThreads is the process's thread count (stat field 20).
	NumThreads int
}

// Total returns user + system time.
func (p ProcCPU) Total() units.CPUTime { return p.User + p.System }

// ReadProc parses /proc/<pid>/stat. It handles commands containing spaces
// and parentheses per the procfs(5) rules (scan for the last ')').
func (fs *FS) ReadProc(pid int) (ProcCPU, error) {
	b, err := fs.readFile(filepath.Join(fs.root, strconv.Itoa(pid), "stat"))
	if err != nil {
		return ProcCPU{}, fmt.Errorf("procfs: pid %d: %w", pid, err)
	}
	s := string(b)
	open := strings.IndexByte(s, '(')
	close := strings.LastIndexByte(s, ')')
	if open < 0 || close < open {
		return ProcCPU{}, fmt.Errorf("procfs: pid %d: malformed stat", pid)
	}
	command := s[open+1 : close]
	rest := strings.Fields(s[close+1:])
	// rest[0] is field 3 (state); utime is field 14, stime field 15.
	if len(rest) < 13 {
		return ProcCPU{}, fmt.Errorf("procfs: pid %d: truncated stat (%d fields after comm)", pid, len(rest))
	}
	utime, err := strconv.ParseUint(rest[11], 10, 64)
	if err != nil {
		return ProcCPU{}, fmt.Errorf("procfs: pid %d utime: %w", pid, err)
	}
	stime, err := strconv.ParseUint(rest[12], 10, 64)
	if err != nil {
		return ProcCPU{}, fmt.Errorf("procfs: pid %d stime: %w", pid, err)
	}
	p := ProcCPU{
		PID:     pid,
		Command: command,
		User:    fs.jiffies(utime),
		System:  fs.jiffies(stime),
	}
	// num_threads is field 20 (rest index 17); tolerate truncated stats,
	// which simply leave the count unknown.
	if len(rest) > 17 {
		if n, err := strconv.Atoi(rest[17]); err == nil && n > 0 {
			p.NumThreads = n
		}
	}
	return p, nil
}

// ReadCurFreqKHz reads a CPU's current frequency in kHz from the cpufreq
// sysfs tree rooted at root (pass DefaultCPUFreqRoot on a real machine).
func ReadCurFreqKHz(root string, cpu int) (uint64, error) {
	return ReadCurFreqKHzReader(root, cpu, nil)
}

// ReadCurFreqKHzReader is ReadCurFreqKHz with the file read routed through
// read (nil = os.ReadFile).
func ReadCurFreqKHzReader(root string, cpu int, read ReadFileFunc) (uint64, error) {
	if read == nil {
		read = os.ReadFile
	}
	path := filepath.Join(root, fmt.Sprintf("cpu%d", cpu), "cpufreq", "scaling_cur_freq")
	b, err := read(path)
	if err != nil {
		return 0, fmt.Errorf("procfs: %w", err)
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: parsing %s: %w", path, err)
	}
	return v, nil
}

// DefaultCPUFreqRoot is the real cpufreq sysfs location.
const DefaultCPUFreqRoot = "/sys/devices/system/cpu"

// ListPIDs returns the numeric directory entries of the tree.
func (fs *FS) ListPIDs() ([]int, error) {
	entries, err := os.ReadDir(fs.root)
	if err != nil {
		return nil, fmt.Errorf("procfs: %w", err)
	}
	var pids []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid <= 0 {
			continue
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// Tracker samples a set of processes and reports per-interval CPU-time
// deltas, the jiffy accounting a Scaphandre-style meter consumes.
type Tracker struct {
	fs   *FS
	last map[int]units.CPUTime
}

// NewTracker returns a tracker over the filesystem.
func NewTracker(fs *FS) *Tracker {
	return &Tracker{fs: fs, last: map[int]units.CPUTime{}}
}

// ProcDelta is one interval's per-process observation.
type ProcDelta struct {
	CPUTime    units.CPUTime
	NumThreads int
}

// Sample reads the given processes and returns each one's CPU time consumed
// since the previous Sample call (zero on first observation). Processes
// that have exited are silently dropped from the result. A transient read
// error (anything but not-exist) keeps the process's baseline: the next
// successful read's delta then spans the gap, so no CPU time is lost.
func (t *Tracker) Sample(pids []int) map[int]units.CPUTime {
	detailed := t.SampleDetailed(pids)
	out := make(map[int]units.CPUTime, len(detailed))
	for pid, d := range detailed {
		out[pid] = d.CPUTime
	}
	return out
}

// SampleDetailed is Sample plus each process's current thread count.
func (t *Tracker) SampleDetailed(pids []int) map[int]ProcDelta {
	out := make(map[int]ProcDelta, len(pids))
	seen := make(map[int]bool, len(pids))
	for _, pid := range pids {
		cur, err := t.fs.ReadProc(pid)
		if err != nil {
			if !errors.Is(err, iofs.ErrNotExist) {
				// Transient failure, not an exit: keep the baseline so
				// the next successful read's delta covers this gap.
				if _, ok := t.last[pid]; ok {
					seen[pid] = true
				}
			}
			continue
		}
		seen[pid] = true
		total := cur.Total()
		d := ProcDelta{NumThreads: cur.NumThreads}
		if prev, ok := t.last[pid]; ok {
			delta := total - prev
			if delta < 0 {
				delta = 0 // PID reuse: a new process with the same PID
			}
			d.CPUTime = delta
		}
		out[pid] = d
		t.last[pid] = total
	}
	for pid := range t.last {
		if !seen[pid] {
			delete(t.last, pid)
		}
	}
	return out
}
