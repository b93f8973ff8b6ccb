package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"powerdiv/internal/fleet"
)

// TestFleetFingerprintFollowsKernelOrder: the traffic generator draws
// kernels by index, so a fleet spec's kernel order changes its
// simulations and must change its fingerprint, or a snapshot would resume
// under a spec whose rows it does not hold. Fingerprints of specs with no
// kernel list or a sorted one are pinned at their earlier values, so
// existing snapshots still resume.
func TestFleetFingerprintFollowsKernelOrder(t *testing.T) {
	t.Parallel()
	compileFleet := func(kernels []string) *runnable {
		t.Helper()
		rn, aerr := compile(SubmitRequest{Kind: KindFleet, Seed: 5, Nodes: 2, Kernels: kernels,
			WindowMS: 3000, RunForMS: 3000, StableWindowMS: 1500}, Options{}.withDefaults())
		if aerr != nil {
			t.Fatal(aerr)
		}
		return rn
	}
	for _, c := range []struct {
		kernels []string
		want    string
	}{
		{nil, "e340c0484e513372"},
		{[]string{"fibonacci", "int64", "matrixprod"}, "990b40265b5f312b"},
	} {
		if got := compileFleet(c.kernels).fingerprint; got != c.want {
			t.Errorf("kernels %q: fingerprint %s, pinned %s", c.kernels, got, c.want)
		}
	}
	sorted := compileFleet([]string{"fibonacci", "int64", "matrixprod"})
	reversed := compileFleet([]string{"matrixprod", "int64", "fibonacci"})
	label := func(rn *runnable) string {
		scenarios, err := fleet.NodeScenarios(rn.fleetCfg, rn.nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		return scenarios[0].Label()
	}
	if a, b := label(sorted), label(reversed); a == b {
		t.Fatalf("kernel order did not change node 0's first scenario (%q)", a)
	}
	if sorted.fingerprint == reversed.fingerprint {
		t.Errorf("kernel orders with different schedules share fingerprint %s", sorted.fingerprint)
	}
}

// TestSnapshotConcurrentPersist has several workers append rows to one job
// and persist it after every row, the way evaluate's ForEach workers do,
// while a reader keeps loading the committed file. Every persist must
// commit, every committed file must load, and the committed row count must
// never go backwards.
func TestSnapshotConcurrentPersist(t *testing.T) {
	t.Parallel()
	const units, writers = 48, 4
	opts := Options{}.withDefaults()
	spec := testSpec(units)
	rn, aerr := compile(spec, opts)
	if aerr != nil {
		t.Fatal(aerr)
	}
	job := newJob("job-000001", spec, rn)
	job.setState(StateRunning, "")
	dir := t.TempDir()
	final := filepath.Join(dir, job.ID+".json")

	errs := make(chan error, units+1)
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := os.ReadFile(final)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				errs <- err
				return
			}
			snap, _, err := LoadSnapshot(data, opts)
			if err != nil {
				errs <- fmt.Errorf("committed snapshot does not load: %w", err)
				return
			}
			if len(snap.Rows) < last {
				errs <- fmt.Errorf("committed rows went from %d back to %d", last, len(snap.Rows))
				return
			}
			last = len(snap.Rows)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < units; i += writers {
				job.appendRow(&ResultRow{
					Index:  i,
					Label:  rn.labels[i],
					Models: []ModelScore{{Model: "scaphandre", AE: float64(i) / units, ScoredTicks: i}},
				})
				if err := job.saveSnapshot(dir); err != nil {
					errs <- fmt.Errorf("persist after row %d: %w", i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	reader.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	data, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := LoadSnapshot(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != units {
		t.Fatalf("final snapshot holds %d rows, want %d", len(snap.Rows), units)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
