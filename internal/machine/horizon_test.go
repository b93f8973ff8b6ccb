package machine

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// raceEnabled reports a race-detector build (see race_test.go).
var raceEnabled bool

// scriptedWorkload is a three-phase script of the given phase lengths,
// with tick-unaligned edges when the lengths are.
func scriptedWorkload(phases ...time.Duration) workload.Workload {
	w := workload.Workload{
		Name: "scripted",
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6, "DAHU": 6},
	}
	for i, d := range phases {
		w.Script = append(w.Script, workload.Phase{
			Duration: d, Threads: 1 + i%2, Intensity: 1 - 0.2*float64(i%3), Util: 1 - 0.1*float64(i%2),
		})
	}
	return w
}

// runCapture puts a Simulate result in the shape the stream captures use:
// Run.ProcEnd is read back into slot order, so a capture compares the
// map's end times against the stream's.
func runCapture(run *Run) tickCapture {
	ends := make([]time.Duration, run.Roster.Len())
	for slot, id := range run.Roster.IDs() {
		end, ok := run.ProcEnd[id]
		if !ok {
			end = -1
		}
		ends[slot] = end
	}
	return tickCapture{run.Ticks, &StreamInfo{Roster: run.Roster, Ticks: len(run.Ticks), Duration: run.Duration, Ends: ends}}
}

// simulateCapture runs Simulate into a capture.
func simulateCapture(t *testing.T, cfg Config, procs []Proc, dur time.Duration) tickCapture {
	t.Helper()
	run, err := Simulate(cfg, procs, dur)
	if err != nil {
		t.Fatal(err)
	}
	return runCapture(run)
}

// TestStreamHorizonMaxInt64 pins horizons at the top of the int64 time
// line: a run whose one scripted process ends at 2.0 s is the same run
// whether the horizon is an hour or math.MaxInt64, through every entry
// point. The tick count of such a horizon overflows a naive ceiling
// division, and a reservation sized by the horizon cannot be allocated.
func TestStreamHorizonMaxInt64(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	cfg.NoiseStddev, cfg.Seed = 0.25, 5
	procs := []Proc{{ID: "s0", Workload: scriptedWorkload(250*time.Millisecond, 1050*time.Millisecond, 700*time.Millisecond), Threads: 2}}
	want, _ := captureSegments(t, cfg, procs, time.Hour)
	if end := want.info.Ends[0]; want.info.Roster.ID(0) != "s0" || end != 2*time.Second {
		t.Fatalf("reference run: s0 ends at %v, want 2s", end)
	}
	for _, horizon := range []time.Duration{math.MaxInt64, math.MaxInt64 - 1} {
		got, segments := captureSegments(t, cfg, procs, horizon)
		requireIdentical(t, "StreamSegments", want, got)
		// The change-point enumeration declines so close to the ceiling:
		// this horizon runs the per-tick fallback, one segment per tick.
		if segments != got.info.Ticks {
			t.Errorf("horizon %d: %d segments over %d ticks, want the per-tick fallback", horizon, segments, got.info.Ticks)
		}
		reps, info := captureBatch(t, cfg, procs, horizon, []int64{cfg.Seed, 99})
		requireIdentical(t, "StreamBatchSegments", want, tickCapture{reps[0], info})
		requireIdentical(t, "Simulate", want, simulateCapture(t, cfg, procs, horizon))
	}
}

// FuzzStreamHorizon drives the segment loop with horizons anywhere in
// int64 and small rosters whose processes all end within seconds: a
// scripted process and a stress process with a stop time, at a tick of
// 10 ms to 1 s. No input may panic; a run either fails or reports a
// non-negative tick count equal to the ticks its segments cover, and
// Simulate stores exactly the flattened segments.
func FuzzStreamHorizon(f *testing.F) {
	for _, horizon := range []int64{math.MaxInt64, math.MaxInt64 - 1, int64(time.Hour), int64(3 * time.Second), 1, 0, -1, math.MinInt64} {
		f.Add(horizon, uint32(90_000), uint16(300), uint16(250), uint16(1050), uint16(700), uint16(1200), uint16(2500), int64(5))
	}
	f.Fuzz(func(t *testing.T, horizon int64, tickUS uint32, start0, ph0, ph1, ph2, start1, life1 uint16, seed int64) {
		cfg := labConfig(cpumodel.SmallIntel())
		cfg.Tick = time.Duration(10_000+tickUS%990_000) * time.Microsecond
		cfg.NoiseStddev, cfg.Seed = 0.25, seed
		ms := func(v uint16, limit int) time.Duration { return time.Duration(int(v)%limit) * time.Millisecond }
		script := scriptedWorkload(ms(ph0, 2000)+time.Millisecond, ms(ph1, 2000)+time.Millisecond, ms(ph2, 2000)+time.Millisecond)
		stress := stressProc("b", "matrixprod", 1)
		stress.Start = ms(start1, 5000)
		stress.Stop = stress.Start + ms(life1, 3000) + time.Millisecond
		procs := []Proc{{ID: "a", Workload: script, Threads: 2, Start: ms(start0, 5000)}, stress}
		maxDur := time.Duration(horizon)

		var recs []TickRecord
		covered := 0
		info, err := StreamSegments(cfg, procs, maxDur, func(seg *Segment) error {
			covered += seg.Ticks()
			for i, p := range seg.Powers {
				r := *seg.Rec
				r.At, r.Power = seg.At(i), p
				r.Procs = append([]ProcTick(nil), seg.Rec.Procs...)
				recs = append(recs, r)
			}
			return nil
		})
		run, simErr := Simulate(cfg, procs, maxDur)
		if (err == nil) != (simErr == nil) {
			t.Fatalf("StreamSegments err %v, Simulate err %v", err, simErr)
		}
		if err != nil {
			return
		}
		if info.Ticks < 0 || info.Ticks != covered {
			t.Fatalf("info.Ticks %d, segments cover %d", info.Ticks, covered)
		}
		requireIdentical(t, "Simulate vs StreamSegments", tickCapture{recs, info}, runCapture(run))
	})
}

// TestStreamSegmentsAllocations pins the one-seed wrapper's cost:
// StreamSegments allocates exactly what the StreamBatchSegments call it
// wraps does. The race detector drops pooled objects at random, so the
// counts only compare without it.
func TestStreamSegmentsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under the race detector")
	}
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.NoiseStddev, cfg.Seed = 0.25, 3
	procs := staggered()
	noop := func(*Segment) error { return nil }
	single := testing.AllocsPerRun(50, func() {
		if _, err := StreamSegments(cfg, procs, 3*time.Second, noop); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(50, func() {
		if _, err := StreamBatchSegments(cfg, procs, 3*time.Second, []int64{cfg.Seed}, func(int, *Segment) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if single != batch {
		t.Errorf("StreamSegments allocates %v times per call, the one-seed batch %v", single, batch)
	}
}
