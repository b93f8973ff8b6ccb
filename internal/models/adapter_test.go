package models

import (
	"math"
	"reflect"
	"testing"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// TestObserveMapHoldsEveryPresentProcess pins the map output's contract:
// whenever a model estimates a tick, the result has exactly one entry per
// present process — zero-CPU and one-thread processes included — and
// nothing else, whether the roster is the present set (churnTicks) or a
// wider one with absent slots.
func TestObserveMapHoldsEveryPresentProcess(t *testing.T) {
	for _, f := range goldenFactories() {
		for _, logical := range []int{12, 64} {
			for in := int64(1); in <= 3; in++ {
				pool := goldenTicks(in, logical)
				for shape, ticks := range map[string][]Tick{"present": churnTicks(pool), "pool": pool} {
					m := f.New(in)
					for i, tk := range ticks {
						est := m.Observe(tk)
						if est == nil {
							continue
						}
						present := 0
						for slot, p := range tk.Samples {
							if !p.Present() {
								continue
							}
							present++
							if _, ok := est[tk.Roster.ID(slot)]; !ok {
								t.Fatalf("%s/%d %s seed %d tick %d: no estimate for %s", f.Name, logical, shape, in, i, tk.Roster.ID(slot))
							}
						}
						if len(est) != present {
							t.Fatalf("%s/%d %s seed %d tick %d: %d estimates for %d processes",
								f.Name, logical, shape, in, i, len(est), present)
						}
					}
				}
			}
		}
	}
}

// TestPowerAPIDegenerateZeroCPUNeighbour pins that on a many-core machine,
// a degenerate calibration that favors the only process with CPU time
// still lists its zero-CPU neighbour in Observe's map, with an explicit 0.
func TestPowerAPIDegenerateZeroCPUNeighbour(t *testing.T) {
	cfg := DefaultPowerAPIConfig()
	cfg.LearnWindow = 200 * time.Millisecond
	cfg.InstabilityProb = 1
	f := NewPowerAPI(cfg)
	const interval = 50 * time.Millisecond
	roster := machine.NewRoster([]string{"busy", "idle"})
	tick := func(i int) Tick {
		busy := ProcSample{CPUTime: units.CPUTime(40 * time.Millisecond), Threads: 1}
		busy.Counters.Cycles = 1e8
		return withProcs(Tick{
			At:           time.Duration(i) * interval,
			Interval:     interval,
			MachinePower: 60,
			LogicalCPUs:  64,
		}, roster, map[string]ProcSample{"busy": busy, "idle": {Threads: 1}})
	}
	zeroed := 0
	for seed := int64(0); seed < 8; seed++ {
		m := f.New(seed)
		for i := 0; i < 10; i++ {
			est := m.Observe(tick(i))
			if est == nil {
				continue
			}
			if !m.(*PowerAPI).Degenerate() {
				t.Fatalf("seed %d: calibration not degenerate with InstabilityProb 1", seed)
			}
			w, ok := est["idle"]
			if !ok {
				t.Fatalf("seed %d tick %d: zero-CPU neighbour missing from %v", seed, i, est)
			}
			if w == 0 && math.Float64bits(float64(est["busy"])) == math.Float64bits(60) {
				zeroed++
			}
		}
	}
	if zeroed == 0 {
		t.Fatal("no seed favored the busy process; the explicit-zero case was not exercised")
	}
}

// TestObserveIntoAllocatesNothing pins the dense entry point's cost: once
// a model is warm (calibrated, adapter and scratch allocated), dividing a
// dense tick allocates nothing.
func TestObserveIntoAllocatesNothing(t *testing.T) {
	for _, f := range goldenFactories() {
		for _, logical := range []int{12, 64} {
			ticks := goldenTicks(3, logical)
			// A steady stretch: one present set, clean intervals.
			for i := range ticks {
				ticks[i].Samples = ticks[0].Samples
				ticks[i].Degraded = false
			}
			dm := f.New(1).(DenseModel)
			out := make([]units.Watts, len(goldenPool))
			for _, tk := range ticks[:200] {
				dm.ObserveInto(tk, out)
			}
			k := 200
			allocs := testing.AllocsPerRun(100, func() {
				dm.ObserveInto(ticks[k], out)
				k++
			})
			if allocs != 0 {
				t.Errorf("%s/%d: ObserveInto allocates %v times per tick", f.Name, logical, allocs)
			}
		}
	}
}

// TestSegmentOnlyModelsNeverAllocateAdapter pins the campaign path's
// cost: a model driven only through ObserveSegmentInto never allocates its
// per-tick adapter.
func TestSegmentOnlyModelsNeverAllocateAdapter(t *testing.T) {
	roster := machine.NewRoster(goldenPool)
	samples := goldenTicks(2, 64)[0].Samples
	powers := []units.Watts{40, 41, 42, 43}
	for _, f := range goldenFactories() {
		m := f.New(1)
		sm := m.(SegmentModel)
		for s := 0; s < 50; s++ {
			seg := SegmentTicks{
				Tick: Tick{
					At:           time.Duration(s*len(powers)) * 50 * time.Millisecond,
					Interval:     50 * time.Millisecond,
					MachinePower: powers[0],
					LogicalCPUs:  64,
					Roster:       roster,
					Samples:      samples,
				},
				Powers: powers,
			}
			sm.ObserveSegmentInto(&seg, make([]units.Watts, len(powers)*roster.Len()), make([]bool, len(powers)))
		}
		field := reflect.ValueOf(m).Elem().FieldByName("ticks")
		if !field.IsValid() {
			t.Fatalf("%s has no ticks adapter field", f.Name)
		}
		if !field.IsNil() {
			t.Errorf("%s allocated its per-tick adapter on the segment path", f.Name)
		}
	}
}
