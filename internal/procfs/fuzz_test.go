package procfs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadProc feeds arbitrary bytes as a /proc/<pid>/stat file: the
// parser must never panic and must either error or return sane values.
func FuzzReadProc(f *testing.F) {
	f.Add("42 (stress-ng) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 100 0 0")
	f.Add("7 (weird (name) here) R 1 1 1 0 -1 0 0 0 0 0 100 0 0 0 20 0 1 0 0 0 0")
	f.Add("13 no-parens R 1")
	f.Add("")
	f.Add("1 () Z")
	f.Add("9 (a) R 1 2 3 4 5 6 7 8 9 10 -11 -12 13 14")
	f.Fuzz(func(t *testing.T, stat string) {
		root := t.TempDir()
		dir := filepath.Join(root, "42")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(stat), 0o644); err != nil {
			t.Skip()
		}
		p, err := New(root, 100).ReadProc(42)
		if err != nil {
			return
		}
		if p.User < 0 || p.System < 0 {
			t.Errorf("negative CPU time from %q: %+v", stat, p)
		}
		if p.PID != 42 {
			t.Errorf("PID = %d", p.PID)
		}
	})
}
