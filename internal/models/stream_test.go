package models

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
)

// streamThroughScratch feeds a run's ticks to a StreamReplay through one
// reused Samples column, mimicking the protocol's streaming consumer (which
// copies the simulator's scratch ProcTick column into a scratch ProcSample
// column per tick).
func streamThroughScratch(r *StreamReplay, ticks []Tick, n int) {
	scratch := make([]ProcSample, n)
	for _, t := range ticks {
		copy(scratch, t.Samples)
		t.Samples = scratch
		r.Observe(t)
	}
}

// TestStreamReplayMatchesReplay drives every model (plus a map-only
// fallback model) tick by tick through StreamReplay — via a reused scratch
// column and an undersized initial slab, so both the copy-out contract and
// slab growth are exercised — and requires the accumulated matrices to be
// bit-identical to per-tick Observe estimates over the same run's ticks
// (observeRun), on both machines: OK flags match non-nil maps, every present process's
// column entry equals its map estimate, and absent or estimate-free
// entries are zero.
func TestStreamReplayMatchesReplay(t *testing.T) {
	factories := []Factory{
		NewScaphandre(),
		NewKepler(),
		NewPowerAPI(DefaultPowerAPIConfig()),
		NewSmartWatts(DefaultSmartWattsConfig()),
		NewF2(map[string]units.Watts{"p0": 3, "p1": 5}),
		NewResidualAwareFromSpec(cpumodel.SmallIntel()),
		NewOracle(),
		{Name: "maponly", New: func(int64) Model { return mapOnlyModel{} }},
	}
	for _, spec := range []cpumodel.Spec{cpumodel.SmallIntel(), cpumodel.Dahu()} {
		// 30 s: PowerAPI fits after its 10 s learning window, and on DAHU
		// its many-core calibration goes degenerate.
		run := simulateRun(t, spec, pairProcs(t, "fibonacci", "matrixprod", 3), 30*time.Second)
		ticks := denseTicks(run)
		for seed := int64(1); seed <= 3; seed++ {
			ms := make([]Model, len(factories))
			for i, f := range factories {
				ms[i] = f.New(seed)
			}
			// Undersize the slab (capTicks 4) to force the growth path.
			replay := NewStreamReplay(run.Roster, ms, 4)
			streamThroughScratch(replay, ticks, run.Roster.Len())
			if replay.Ticks() != len(ticks) {
				t.Fatalf("%s: replay saw %d ticks, want %d", spec.Name, replay.Ticks(), len(ticks))
			}
			for m, f := range factories {
				want := observeRun(f.New(seed), run)
				got := replay.Estimates(m)
				if got.Ticks() != len(want) || len(got.Slab) != len(want)*run.Roster.Len() {
					t.Fatalf("%s/%s: matrix shape %d×%d, want %d ticks", spec.Name, f.Name, got.Ticks(), len(got.Slab), len(want))
				}
				for i, est := range want {
					if got.OK[i] != (est != nil) {
						t.Fatalf("%s/%s seed %d: tick %d OK %v, map estimate %v", spec.Name, f.Name, seed, i, got.OK[i], est)
					}
					for slot, id := range run.Roster.IDs() {
						if math.Float64bits(float64(got.Row(i)[slot])) != math.Float64bits(float64(est[id])) {
							t.Fatalf("%s/%s seed %d: tick %d %s = %v, map %v", spec.Name, f.Name, seed, i, id, got.Row(i)[slot], est[id])
						}
					}
				}
			}
		}
	}
}

// TestStreamReplayEmpty pins the degenerate shapes: no models, and a
// replay that never observes a tick.
func TestStreamReplayEmpty(t *testing.T) {
	run := simulateRun(t, cpumodel.SmallIntel(), pairProcs(t, "int64", "rand", 1), time.Second)
	empty := NewStreamReplay(run.Roster, nil, -1)
	if empty.Ticks() != 0 {
		t.Errorf("model-free replay reports %d ticks", empty.Ticks())
	}
	idle := NewStreamReplay(run.Roster, []Model{NewScaphandre().New(1)}, 0)
	if idle.Ticks() != 0 || idle.Estimates(0).Ticks() != 0 {
		t.Error("unfed replay reports ticks")
	}
}

// TestStreamReplayReleaseConcurrent runs replay lifecycles on several
// goroutines at once, so pooled arenas pass between them. Release must be
// done with the arena before another replay can take it: a replay whose
// estimate pointers were cleared by a late Release of the arena's previous
// owner panics on its next observation (and go test -race reports the
// write).
func TestStreamReplayReleaseConcurrent(t *testing.T) {
	run := simulateRun(t, cpumodel.SmallIntel(), pairProcs(t, "int64", "rand", 1), 2*time.Second)
	ticks := denseTicks(run)
	factories := []Factory{NewScaphandre(), NewOracle()}
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ms := make([]Model, len(factories))
				for m, f := range factories {
					ms[m] = f.New(int64(i))
				}
				replay := NewStreamReplay(run.Roster, ms, len(ticks))
				streamThroughScratch(replay, ticks, run.Roster.Len())
				for m := range ms {
					if got := replay.Estimates(m).Ticks(); got != len(ticks) {
						errs <- fmt.Sprintf("model %d holds %d ticks, want %d", m, got, len(ticks))
						return
					}
				}
				replay.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
