package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
)

// TestStreamMatchesSimulate pins the collector contract: the segments
// StreamSegments yields, flattened to ticks, are bit-identical to the
// records Simulate stores, on a noisy scenario with staggered starts and
// an early finisher (so the early-exit and ProcEnd paths are exercised
// too), and both carry the same roster.
func TestStreamMatchesSimulate(t *testing.T) {
	cfg := prodConfig(cpumodel.Dahu())
	cfg.NoiseStddev = 0.25
	cfg.Seed = 42
	procs := []Proc{
		stressProc("b-late", "matrixprod", 2),
		stressProc("a-short", "fibonacci", 2),
	}
	procs[0].Start = 500 * time.Millisecond
	procs[1].Stop = 2 * time.Second
	const dur = 5 * time.Second

	run, err := Simulate(cfg, procs, dur)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := captureSegments(t, cfg, procs, dur)
	requireIdentical(t, "Simulate vs StreamSegments", streamed, runCapture(run))
	if got, want := streamed.info.Roster.IDs(), run.Roster.IDs(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("roster %v != %v", got, want)
	}
}

// staggered is a three-process roster whose arrivals split a run into
// several segments.
func staggered() []Proc {
	procs := []Proc{stressProc("p0", "fibonacci", 1), stressProc("p1", "int64", 1), stressProc("p2", "rand", 1)}
	procs[1].Start = time.Second
	procs[2].Start = 2 * time.Second
	return procs
}

// TestStreamYieldError proves a consumer error aborts the run and surfaces
// unwrapped.
func TestStreamYieldError(t *testing.T) {
	sentinel := errors.New("stop here")
	segments := 0
	_, err := StreamSegments(labConfig(cpumodel.SmallIntel()), staggered(), 5*time.Second, func(*Segment) error {
		segments++
		if segments == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if segments != 2 {
		t.Fatalf("yield ran %d times after error, want 2", segments)
	}
}

// TestStreamScratchColumnReused documents the scratch contract: the
// segment and the Procs slice handed to yield are reused between
// segments, so a consumer that keeps them sees later segments' data.
func TestStreamScratchColumnReused(t *testing.T) {
	var first *Segment
	var col []ProcTick
	segments := 0
	_, err := StreamSegments(labConfig(cpumodel.SmallIntel()), staggered(), 3*time.Second, func(seg *Segment) error {
		segments++
		if first == nil {
			first, col = seg, seg.Rec.Procs
		} else if seg != first || &col[0] != &seg.Rec.Procs[0] {
			t.Fatal("expected the scratch segment and column to be reused across segments")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if segments < 2 {
		t.Fatalf("%d segments, want several", segments)
	}
}

// TestNoisePoolConcurrentRuns runs noisy simulations on several goroutines
// at once, so pooled noise registers pass between runs of different seeds,
// and some runs abort early through their yield. Every run's measured
// powers must still be its true powers plus math/rand's own normal stream
// for its seed, draw for draw.
func TestNoisePoolConcurrentRuns(t *testing.T) {
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.NoiseStddev = 0.5
	procs := []Proc{stressProc("a", "matrixprod", 2), stressProc("b", "queens", 1)}
	procs[1].Start = 700 * time.Millisecond
	const dur = 3 * time.Second
	errStop := errors.New("stop")

	check := func(seed int64, abortAt int) string {
		run := cfg
		run.Seed = seed
		want := rand.New(rand.NewSource(seed))
		n := 0
		_, err := StreamSegments(run, procs, dur, func(seg *Segment) error {
			for _, p := range seg.Powers {
				w := float64(seg.Rec.TruePower) + want.NormFloat64()*float64(cfg.NoiseStddev)
				if math.Float64bits(float64(p)) != math.Float64bits(w) {
					return fmt.Errorf("seed %d tick %d: power %v, want %v", seed, n, p, w)
				}
				n++
			}
			if abortAt > 0 && n >= abortAt {
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			return err.Error()
		}
		return ""
	}

	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	failures := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seed := int64(w*rounds + i)
				if msg := check(seed, (i%3)*5); msg != "" {
					failures <- msg
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
}

// TestSegmentPowerPoolConcurrentAborts runs StreamSegments on several
// goroutines at once, most of them aborting from the yield partway
// through, so pooled power buffers are handed back on the error exit and
// taken by other runs mid-flight. Every run's yielded powers must be
// bit-identical to the same seed's clean, serial run up to where it
// stopped.
func TestSegmentPowerPoolConcurrentAborts(t *testing.T) {
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.NoiseStddev = 0.5
	procs := []Proc{stressProc("a", "matrixprod", 2), stressProc("b", "queens", 1)}
	procs[1].Start = 700 * time.Millisecond
	procs[1].Stop = 2300 * time.Millisecond
	const dur = 3 * time.Second
	const seeds = 12
	errStop := errors.New("stop")

	collect := func(seed int64, abortAt int) ([]uint64, error) {
		run := cfg
		run.Seed = seed
		var bits []uint64
		_, err := StreamSegments(run, procs, dur, func(seg *Segment) error {
			for _, p := range seg.Powers {
				bits = append(bits, math.Float64bits(float64(p)))
			}
			if abortAt > 0 && len(bits) >= abortAt {
				return errStop
			}
			return nil
		})
		return bits, err
	}
	want := make([][]uint64, seeds)
	for seed := range want {
		bits, err := collect(int64(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = bits
	}

	const workers, rounds = 4, 30
	var wg sync.WaitGroup
	failures := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seed := (w + i) % seeds
				abortAt := (i % 4) * 7 // 0 runs to the end
				got, err := collect(int64(seed), abortAt)
				if abortAt > 0 && !errors.Is(err, errStop) || abortAt == 0 && err != nil {
					failures <- fmt.Sprintf("seed %d abort %d: err %v", seed, abortAt, err)
					return
				}
				if abortAt == 0 && len(got) != len(want[seed]) || len(got) > len(want[seed]) {
					failures <- fmt.Sprintf("seed %d abort %d: %d ticks, clean run %d", seed, abortAt, len(got), len(want[seed]))
					return
				}
				for k := range got {
					if got[k] != want[seed][k] {
						failures <- fmt.Sprintf("seed %d abort %d tick %d: power bits %x, want %x", seed, abortAt, k, got[k], want[seed][k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
}
