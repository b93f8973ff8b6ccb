package models

import (
	"math"
	"sort"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// TestObserveSegmentMatchesPerTick pins the model-side half of the segment
// engine: for every model (including a map-only fallback that never
// implements SegmentModel), feeding whole segments through
// StreamReplay.ObserveSegment accumulates matrices bit-identical to
// observing the same run tick by tick. The scenario mixes churn, pins,
// quotas and scripted phases so segments genuinely coalesce ticks, and
// alternate segments are marked Degraded to pin the learning-window skips
// (PowerAPI, SmartWatts, WattScope floors) on both paths.
func TestObserveSegmentMatchesPerTick(t *testing.T) {
	for _, spec := range []cpumodel.Spec{cpumodel.SmallIntel(), cpumodel.Dahu()} {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := machine.Config{Spec: spec, NoiseStddev: 0.25, Seed: 42}
			mk := func(id, fn string, threads int, start, stop time.Duration) machine.Proc {
				p := pairProcs(t, fn, fn, threads)[0]
				p.ID = id
				p.Start, p.Stop = start, stop
				return p
			}
			quota := mk("c-quota", "matrixprod", 2, 0, 4*time.Second)
			quota.CPUQuota = 0.5
			pinned := mk("d-pin", "rand", 1, 2*time.Second, 0)
			pinned.Pinned = []int{0}
			procs := []machine.Proc{
				mk("a-base", "fibonacci", 2, 0, 0),
				mk("b-late", "int64", 1, 1500*time.Millisecond, 5*time.Second),
				quota,
				pinned,
			}
			const dur = 8 * time.Second

			ids := make([]string, len(procs))
			for i, p := range procs {
				ids[i] = p.ID
			}
			sort.Strings(ids)
			roster := machine.NewRoster(ids)

			factories := []Factory{
				NewScaphandre(),
				NewKepler(),
				NewPowerAPI(DefaultPowerAPIConfig()),
				NewSmartWatts(DefaultSmartWattsConfig()),
				NewF2(map[string]units.Watts{"a-base": 3, "b-late": 5, "c-quota": 2, "d-pin": 4}),
				NewWattScope(),
				NewResidualAwareFromSpec(spec),
				NewOracle(),
				{Name: "maponly", New: func(int64) Model { return mapOnlyModel{} }},
			}
			const seed = int64(7)
			segModels := make([]Model, len(factories))
			tickModels := make([]Model, len(factories))
			for i, f := range factories {
				segModels[i] = f.New(seed)
				tickModels[i] = f.New(seed)
			}
			// Undersized slabs (capTicks 4) force the growth path on both.
			segReplay := NewStreamReplay(roster, segModels, 4)
			tickReplay := NewStreamReplay(roster, tickModels, 4)

			tick := cfg.TickInterval()
			logical := spec.Topology.LogicalCPUs()
			scratch := make([]ProcSample, roster.Len())
			base := Tick{Interval: tick, LogicalCPUs: logical, Roster: roster, Samples: scratch}
			segIdx := 0
			segments := 0
			var ticks int
			_, err := machine.StreamSegments(cfg, procs, dur, func(seg *machine.Segment) error {
				for slot := range scratch {
					pt := seg.Rec.Procs[slot]
					scratch[slot] = ProcSample{
						CPUTime:    pt.CPUTime,
						Counters:   pt.Counters,
						Threads:    pt.Threads,
						TrueActive: pt.ActivePower,
					}
				}
				base.Freq = seg.Rec.Freq
				base.Degraded = segIdx%2 == 1
				segIdx++
				segments++
				ticks += seg.Ticks()

				st := SegmentTicks{Tick: base, Powers: seg.Powers}
				st.Tick.At = seg.Rec.At
				st.Tick.MachinePower = seg.Powers[0]
				segReplay.ObserveSegment(&st)

				for i := range seg.Powers {
					pt := base
					pt.At = seg.At(i)
					pt.MachinePower = seg.Powers[i]
					tickReplay.Observe(pt)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if segments >= ticks {
				t.Fatalf("scenario produced %d segments over %d ticks — nothing coalesced", segments, ticks)
			}
			if segReplay.Ticks() != ticks || tickReplay.Ticks() != ticks {
				t.Fatalf("replays saw %d/%d ticks, want %d", segReplay.Ticks(), tickReplay.Ticks(), ticks)
			}
			for m, f := range factories {
				want := tickReplay.Estimates(m)
				got := segReplay.Estimates(m)
				if got.Ticks() != want.Ticks() || len(got.Slab) != len(want.Slab) {
					t.Fatalf("%s: matrix shape %d×%d, want %d×%d",
						f.Name, got.Ticks(), len(got.Slab), want.Ticks(), len(want.Slab))
				}
				for i := range want.OK {
					if got.OK[i] != want.OK[i] {
						t.Fatalf("%s: tick %d OK %v, want %v", f.Name, i, got.OK[i], want.OK[i])
					}
				}
				for i := range want.Slab {
					if math.Float64bits(float64(got.Slab[i])) != math.Float64bits(float64(want.Slab[i])) {
						t.Fatalf("%s: slab[%d] = %v, want %v", f.Name, i, got.Slab[i], want.Slab[i])
					}
				}
			}
		})
	}
}
