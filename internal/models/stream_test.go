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

// TestStreamReplayMatchesReplayDense drives every model (plus a map-only
// fallback model) tick by tick through StreamReplay — via a reused scratch
// column and an undersized initial slab, so both the copy-out contract and
// slab growth are exercised — and requires the accumulated matrices to be
// bit-identical to ReplayDense over the same ticks, on both machines.
func TestStreamReplayMatchesReplayDense(t *testing.T) {
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
	const seed = int64(7)
	for _, spec := range []cpumodel.Spec{cpumodel.SmallIntel(), cpumodel.Dahu()} {
		run := simulateRun(t, spec, pairProcs(t, "fibonacci", "matrixprod", 3), 12*time.Second)
		ticks := RunTicksDense(run)

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
			want := ReplayDense(f.New(seed), ticks)
			got := replay.Estimates(m)
			if got.Ticks() != want.Ticks() || len(got.Slab) != len(want.Slab) {
				t.Fatalf("%s/%s: matrix shape %d×%d, want %d×%d",
					spec.Name, f.Name, got.Ticks(), len(got.Slab), want.Ticks(), len(want.Slab))
			}
			for i := range want.OK {
				if got.OK[i] != want.OK[i] {
					t.Fatalf("%s/%s: tick %d OK %v, want %v", spec.Name, f.Name, i, got.OK[i], want.OK[i])
				}
			}
			for i := range want.Slab {
				if math.Float64bits(float64(got.Slab[i])) != math.Float64bits(float64(want.Slab[i])) {
					t.Fatalf("%s/%s: slab[%d] = %v, want %v", spec.Name, f.Name, i, got.Slab[i], want.Slab[i])
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
	ticks := RunTicksDense(run)
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
