package procfs

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"powerdiv/internal/units"
)

// fakeProc builds a synthetic proc tree.
type fakeProc struct {
	t    *testing.T
	root string
}

func newFakeProc(t *testing.T) *fakeProc {
	t.Helper()
	return &fakeProc{t: t, root: t.TempDir()}
}

func (f *fakeProc) writeProc(pid int, comm string, utime, stime uint64) {
	f.t.Helper()
	dir := filepath.Join(f.root, strconv.Itoa(pid))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.t.Fatal(err)
	}
	// pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
	// majflt cmajflt utime stime ...
	line := strconv.Itoa(pid) + " (" + comm + ") R 1 1 1 0 -1 4194304 100 0 0 0 " +
		strconv.FormatUint(utime, 10) + " " + strconv.FormatUint(stime, 10) +
		" 0 0 20 0 1 0 100 0 0\n"
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(line), 0o644); err != nil {
		f.t.Fatal(err)
	}
}

func TestReadProc(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(42, "stress-ng", 250, 50)
	fs := New(f.root, 100)
	p, err := fs.ReadProc(42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Command != "stress-ng" {
		t.Errorf("Command = %q", p.Command)
	}
	if p.User != units.CPUTime(2500*time.Millisecond) {
		t.Errorf("User = %v, want 2.5s", p.User)
	}
	if p.System != units.CPUTime(500*time.Millisecond) {
		t.Errorf("System = %v, want 0.5s", p.System)
	}
	if p.Total() != units.CPUTime(3*time.Second) {
		t.Errorf("Total = %v, want 3s", p.Total())
	}
}

func TestReadProcCommandWithSpacesAndParens(t *testing.T) {
	// procfs(5): comm can contain spaces and parentheses; parse to the
	// LAST closing paren.
	f := newFakeProc(t)
	f.writeProc(7, "weird (name) here", 100, 0)
	p, err := New(f.root, 100).ReadProc(7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Command != "weird (name) here" {
		t.Errorf("Command = %q", p.Command)
	}
	if p.User != units.CPUTime(time.Second) {
		t.Errorf("User = %v, want 1s", p.User)
	}
}

func TestReadProcErrors(t *testing.T) {
	f := newFakeProc(t)
	fs := New(f.root, 100)
	if _, err := fs.ReadProc(999); err == nil {
		t.Error("missing pid accepted")
	}
	dir := filepath.Join(f.root, "13")
	os.MkdirAll(dir, 0o755)
	os.WriteFile(filepath.Join(dir, "stat"), []byte("13 no-parens R 1\n"), 0o644)
	if _, err := fs.ReadProc(13); err == nil {
		t.Error("malformed stat accepted")
	}
	os.WriteFile(filepath.Join(dir, "stat"), []byte("13 (x) R 1 2\n"), 0o644)
	if _, err := fs.ReadProc(13); err == nil {
		t.Error("truncated stat accepted")
	}
}

func TestListPIDs(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(1, "init", 0, 0)
	f.writeProc(42, "stress", 0, 0)
	os.MkdirAll(filepath.Join(f.root, "sys"), 0o755) // non-numeric: skipped
	pids, err := New(f.root, 100).ListPIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want [1 42]", pids)
	}
}

func TestTrackerDeltas(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "a", 100, 0)
	f.writeProc(11, "b", 200, 0)
	tr := NewTracker(New(f.root, 100))

	first := tr.Sample([]int{10, 11})
	if first[10] != 0 || first[11] != 0 {
		t.Errorf("first sample deltas = %v, want zeros", first)
	}

	f.writeProc(10, "a", 150, 10) // +60 jiffies = 600 ms
	f.writeProc(11, "b", 200, 0)  // unchanged
	second := tr.Sample([]int{10, 11})
	if second[10] != units.CPUTime(600*time.Millisecond) {
		t.Errorf("pid 10 delta = %v, want 600ms", second[10])
	}
	if second[11] != 0 {
		t.Errorf("pid 11 delta = %v, want 0", second[11])
	}
}

func TestTrackerExitAndReuse(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "a", 1000, 0)
	tr := NewTracker(New(f.root, 100))
	tr.Sample([]int{10})

	// Process exits.
	os.RemoveAll(filepath.Join(f.root, "10"))
	gone := tr.Sample([]int{10})
	if _, ok := gone[10]; ok {
		t.Error("exited process still reported")
	}

	// A new process reuses the PID with lower counters: first observation
	// again (no negative delta).
	f.writeProc(10, "fresh", 5, 0)
	again := tr.Sample([]int{10})
	if again[10] != 0 {
		t.Errorf("reused PID delta = %v, want 0", again[10])
	}
}

func TestTrackerPIDReuseWithoutGap(t *testing.T) {
	// Same PID, counters went backwards between consecutive samples: the
	// delta clamps to zero instead of going negative.
	f := newFakeProc(t)
	f.writeProc(10, "a", 1000, 0)
	tr := NewTracker(New(f.root, 100))
	tr.Sample([]int{10})
	f.writeProc(10, "b", 5, 0)
	got := tr.Sample([]int{10})
	if got[10] != 0 {
		t.Errorf("backwards counter delta = %v, want 0", got[10])
	}
}

func TestDefaults(t *testing.T) {
	fs := New("", 0)
	if fs.root != DefaultRoot || fs.hz != DefaultHz {
		t.Errorf("defaults = %q/%d", fs.root, fs.hz)
	}
}

func TestReadProcNumThreads(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(42, "stress-ng", 250, 50)
	p, err := New(f.root, 100).ReadProc(42)
	if err != nil {
		t.Fatal(err)
	}
	// The fake stat line writes "1" at the num_threads position.
	if p.NumThreads != 1 {
		t.Errorf("NumThreads = %d, want 1", p.NumThreads)
	}
}

func TestSampleDetailed(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "a", 100, 0)
	tr := NewTracker(New(f.root, 100))
	tr.SampleDetailed([]int{10})
	f.writeProc(10, "a", 150, 0)
	got := tr.SampleDetailed([]int{10})
	if got[10].CPUTime != units.CPUTime(500*time.Millisecond) {
		t.Errorf("delta = %v, want 500ms", got[10].CPUTime)
	}
	if got[10].NumThreads != 1 {
		t.Errorf("NumThreads = %d, want 1", got[10].NumThreads)
	}
}

func TestReadCurFreqKHz(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cpu0", "cpufreq")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scaling_cur_freq"), []byte("3600000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	khz, err := ReadCurFreqKHz(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if khz != 3600000 {
		t.Errorf("freq = %d kHz, want 3600000", khz)
	}
	if _, err := ReadCurFreqKHz(root, 1); err == nil {
		t.Error("missing cpu accepted")
	}
	os.WriteFile(filepath.Join(dir, "scaling_cur_freq"), []byte("garbage\n"), 0o644)
	if _, err := ReadCurFreqKHz(root, 0); err == nil {
		t.Error("garbage frequency accepted")
	}
}

// NewReader routes every file read through the injected reader — the seam
// the fault-injection harness attacks.
func TestNewReaderRoutesReads(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "worker", 100, 0)
	var reads []string
	fs := NewReader(f.root, 100, func(path string) ([]byte, error) {
		reads = append(reads, path)
		return os.ReadFile(path)
	})
	if _, err := fs.ReadProc(10); err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(f.root, "10", "stat"); len(reads) != 1 || reads[0] != want {
		t.Errorf("reads = %q, want [%q]", reads, want)
	}
}

// A transient (non-ENOENT) read error must not be mistaken for process
// exit: the baseline is kept and the next successful delta spans the gap.
func TestTrackerTransientErrorKeepsBaseline(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "worker", 0, 0)
	fail := false
	fs := NewReader(f.root, 100, func(path string) ([]byte, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return os.ReadFile(path)
	})
	tr := NewTracker(fs)
	tr.Sample([]int{10})

	// The process burns 1 s but the read fails: no delta this tick.
	f.writeProc(10, "worker", 100, 0)
	fail = true
	if out := tr.Sample([]int{10}); len(out) != 0 {
		t.Fatalf("failed read produced a delta: %v", out)
	}

	// It burns another second and the read recovers: the delta covers
	// both intervals.
	fail = false
	f.writeProc(10, "worker", 200, 0)
	out := tr.Sample([]int{10})
	if out[10] != units.CPUTime(2*time.Second) {
		t.Errorf("delta = %v, want 2s (the gap's CPU time was lost)", out[10])
	}
}

// A true exit (ENOENT) still drops the baseline, so a reused PID starts
// from scratch.
func TestTrackerExitStillDropsBaseline(t *testing.T) {
	f := newFakeProc(t)
	f.writeProc(10, "worker", 100, 0)
	fs := New(f.root, 100)
	tr := NewTracker(fs)
	tr.Sample([]int{10})
	if err := os.RemoveAll(filepath.Join(f.root, "10")); err != nil {
		t.Fatal(err)
	}
	if out := tr.Sample([]int{10}); len(out) != 0 {
		t.Fatalf("exited pid produced a delta: %v", out)
	}
	// Reused PID with fresh (lower) counters: first observation, zero delta.
	f.writeProc(10, "worker", 5, 0)
	out := tr.Sample([]int{10})
	if out[10] != 0 {
		t.Errorf("reused pid delta = %v, want 0", out[10])
	}
}

func TestReadCurFreqKHzReader(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cpu0", "cpufreq")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scaling_cur_freq"), []byte("3600000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reads := 0
	khz, err := ReadCurFreqKHzReader(root, 0, func(path string) ([]byte, error) {
		reads++
		return os.ReadFile(path)
	})
	if err != nil || khz != 3600000 || reads != 1 {
		t.Errorf("khz = %d, err = %v, reads = %d", khz, err, reads)
	}
	boom := errors.New("boom")
	if _, err := ReadCurFreqKHzReader(root, 0, func(string) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}
