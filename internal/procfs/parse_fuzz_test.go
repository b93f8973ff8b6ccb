package procfs

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseStat drives the /proc/<pid>/stat parser and the Tracker
// through the NewReader seam — no filesystem, so the fuzzer explores the
// parsing logic itself. Properties: no panic; a successful parse never
// yields negative or wrapped CPU times (the jiffy clamp); and sampling the
// same unchanged stat twice always reports a zero delta.
func FuzzParseStat(f *testing.F) {
	f.Add("42 (stress-ng) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0")
	f.Add("42 (weird (name) here) R 1 1 1 0 -1 0 0 0 0 0 100 0 0 0 20 0 1 0 0 0 0")
	// Huge jiffy counts: before the clamp these overflowed into negative
	// durations.
	f.Add("42 (big) R 1 1 1 0 -1 0 0 0 0 0 18446744073709551615 18446744073709551615 0 0 20 0 1 0 0 0 0")
	f.Add("42 ()( R 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18")
	f.Add("")
	f.Fuzz(func(t *testing.T, procStat string) {
		fs := NewReader("/fuzz-proc", 100, func(path string) ([]byte, error) {
			if strings.HasSuffix(path, "/42/stat") {
				return []byte(procStat), nil
			}
			return nil, os.ErrNotExist
		})

		p, err := fs.ReadProc(42)
		if err == nil {
			if p.User < 0 || p.System < 0 || p.Total() < 0 {
				t.Errorf("negative CPU time from %q: %+v", procStat, p)
			}
			if p.NumThreads < 0 {
				t.Errorf("negative thread count from %q: %+v", procStat, p)
			}
		}

		// Tracker invariants over an unchanged stat file: the first
		// observation establishes the baseline (zero delta) and a re-read of
		// identical content must also be a zero delta — anything else would
		// invent CPU time.
		tr := NewTracker(fs)
		for round := 0; round < 2; round++ {
			for pid, d := range tr.SampleDetailed([]int{42}) {
				if d.CPUTime != 0 {
					t.Errorf("round %d: unchanged stat %q produced delta %v for pid %d", round, procStat, d.CPUTime, pid)
				}
				if d.NumThreads < 0 {
					t.Errorf("round %d: negative thread count %d", round, d.NumThreads)
				}
			}
		}
	})
}
