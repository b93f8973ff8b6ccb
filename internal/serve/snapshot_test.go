package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

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
