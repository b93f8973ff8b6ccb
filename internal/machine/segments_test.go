package machine

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// segScenarios is the equivalence table for the segment engine: every
// scenario class whose dynamics the change-point enumeration must prove
// piecewise-constant — churn edges, pinned threads, CPU quotas,
// multi-phase scripts with zero-duration and tick-unaligned edges, timed
// traffic rosters, idle machines — with sensor noise on so the RNG
// consumption order is pinned too.
func segScenarios(t *testing.T) []struct {
	name  string
	cfg   Config
	procs []Proc
	dur   time.Duration
} {
	t.Helper()
	noisy := func(cfg Config, seed int64) Config {
		cfg.NoiseStddev = 0.25
		cfg.Seed = seed
		return cfg
	}
	timed := func(id, fn string, threads int, start, stop time.Duration) Proc {
		p := stressProc(id, fn, threads)
		p.Start, p.Stop = start, stop
		return p
	}
	pinned := stressProc("a-pin", "int64", 2)
	pinned.Pinned = []int{0, 1}
	pinned.CPUQuota = 0.5
	quota := stressProc("b-quota", "matrixprod", 2)
	quota.Pinned = []int{2, 3}
	quota.CPUQuota = 0.25
	quota.Stop = 3 * time.Second

	// Tick-unaligned phase edges (250 ms / 1050 ms against the 100 ms
	// tick) so ceilTick rounding is exercised; Validate rejects
	// zero-duration phases in real rosters, so those are pinned at the
	// enumeration level in TestChangePointTicks instead.
	edgy := workload.Workload{
		Name: "edgy",
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6, "DAHU": 6},
		Script: []workload.Phase{
			{Duration: 250 * time.Millisecond, Threads: 2, Intensity: 1, Util: 1},
			{Duration: 1050 * time.Millisecond, Threads: 1, Intensity: 0.5, Util: 0.7},
			{Duration: 700 * time.Millisecond, Threads: 2, Intensity: 0.8, Util: 1},
		},
	}

	return []struct {
		name  string
		cfg   Config
		procs []Proc
		dur   time.Duration
	}{
		{"steady-pair", noisy(labConfig(cpumodel.SmallIntel()), 7), []Proc{
			stressProc("p0", "fibonacci", 2),
			stressProc("p1", "matrixprod", 1),
		}, 5 * time.Second},
		{"churn-staggered", noisy(labConfig(cpumodel.SmallIntel()), 11), []Proc{
			timed("p0", "int64", 1, 0, 0),
			timed("p1", "int64", 1, time.Second, 3*time.Second),
			timed("p2", "rand", 1, 2*time.Second, 4500*time.Millisecond),
			timed("p3", "fibonacci", 1, 4*time.Second, 0),
		}, 6 * time.Second},
		{"idle-gap", noisy(labConfig(cpumodel.Dahu()), 13), []Proc{
			timed("a-early", "int64", 2, 0, 2*time.Second),
			timed("b-late", "fibonacci", 1, 5*time.Second, 0),
		}, 8 * time.Second},
		{"pins-and-quotas", noisy(prodConfig(cpumodel.SmallIntel()), 17), []Proc{
			pinned, quota,
		}, 4 * time.Second},
		{"unaligned-phase-edges", noisy(labConfig(cpumodel.SmallIntel()), 19), []Proc{
			{ID: "e0", Workload: edgy, Threads: 2},
			// e1's shifted boundaries collide with e0's stop below,
			// exercising change-point dedup on a real roster.
			{ID: "e1", Workload: edgy, Threads: 2, Start: 330 * time.Millisecond},
			{ID: "e2", Workload: edgy, Threads: 1, Start: 250 * time.Millisecond, Stop: 1300 * time.Millisecond},
		}, 4 * time.Second},
		{"traffic-roster", noisy(prodConfig(cpumodel.Dahu()), 23), []Proc{
			timed("fib.00", "fibonacci", 1, 0, 0),
			timed("fib.01", "fibonacci", 1, 700*time.Millisecond, 4*time.Second),
			timed("mat.00", "matrixprod", 2, 2*time.Second, 6*time.Second),
			timed("rand.00", "rand", 1, 5*time.Second, 0),
			timed("int.00", "int64", 1, 8300*time.Millisecond, 9100*time.Millisecond),
		}, 10 * time.Second},
		{"early-exit-scripted", noisy(labConfig(cpumodel.SmallIntel()), 29), []Proc{
			{ID: "s0", Workload: edgy, Threads: 2},
		}, 10 * time.Second},
		{"idle-machine", noisy(labConfig(cpumodel.SmallIntel()), 31), nil, 2 * time.Second},
	}
}

// tickCapture is a deep-copied stream: one record per tick plus the
// summary info, comparable bit for bit.
type tickCapture struct {
	recs []TickRecord
	info *StreamInfo
}

// perTickReference is the simulator loop as it was before segments, kept
// as the reference the segment engine is pinned against: stepTick once per
// tick into a fresh column, one math/rand noise draw per tick in tick
// order, and an early end after the first tick on which every process has
// started and none is running.
func perTickReference(t *testing.T, cfg Config, procs []Proc, dur time.Duration) tickCapture {
	t.Helper()
	ordered, err := streamSetup(cfg, procs, dur)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(ordered))
	for i, p := range ordered {
		ids[i] = p.ID
	}
	info := &StreamInfo{Roster: NewRoster(ids), Ends: make([]time.Duration, len(ordered))}
	tick := cfg.tick()
	phys, nCPU := cfg.Spec.Topology.PhysicalCores(), cfg.schedulableCPUs()
	var sc tickScratch
	sc.beginRun(cfg, ordered)
	ends := make([]time.Duration, len(ordered))
	for i := range ends {
		ends[i] = endUnset
	}
	noise := rand.New(rand.NewSource(cfg.Seed))
	var recs []TickRecord
	for at := time.Duration(0); at < dur; at += tick {
		var rec TickRecord
		active, err := stepTick(cfg, ordered, at, tick, phys, nCPU, ends, &sc, make([]ProcTick, len(ordered)), &rec)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.NoiseStddev > 0 {
			rec.Power = units.Watts(float64(rec.TruePower) + noise.NormFloat64()*float64(cfg.NoiseStddev))
		}
		recs = append(recs, rec)
		if !active && allStarted(ordered, at) {
			break
		}
	}
	info.Ticks = len(recs)
	info.Duration = time.Duration(len(recs)) * tick
	for slot, end := range ends {
		info.Ends[slot] = info.Duration
		if end != endUnset {
			info.Ends[slot] = end
		}
	}
	return tickCapture{recs, info}
}

func captureSegments(t *testing.T, cfg Config, procs []Proc, dur time.Duration) (tickCapture, int) {
	t.Helper()
	var recs []TickRecord
	segments := 0
	info, err := StreamSegments(cfg, procs, dur, func(seg *Segment) error {
		segments++
		for i := range seg.Powers {
			r := *seg.Rec
			r.At = seg.At(i)
			r.Power = seg.Powers[i]
			r.Procs = append([]ProcTick(nil), seg.Rec.Procs...)
			recs = append(recs, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tickCapture{recs, info}, segments
}

// requireIdentical compares two captured streams bit for bit: every power
// field via Float64bits, every dense column entry exactly, and the summary
// info (tick count, duration, per-process ends).
func requireIdentical(t *testing.T, label string, want, got tickCapture) {
	t.Helper()
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d ticks, want %d", label, len(got.recs), len(want.recs))
	}
	for i := range want.recs {
		w, g := &want.recs[i], &got.recs[i]
		if g.At != w.At || g.Freq != w.Freq {
			t.Fatalf("%s: tick %d header %v/%v, want %v/%v", label, i, g.At, g.Freq, w.At, w.Freq)
		}
		for _, p := range [][2]units.Watts{
			{g.Power, w.Power}, {g.TruePower, w.TruePower}, {g.Idle, w.Idle},
			{g.Residual, w.Residual}, {g.Active, w.Active},
		} {
			if math.Float64bits(float64(p[0])) != math.Float64bits(float64(p[1])) {
				t.Fatalf("%s: tick %d power field %v, want %v", label, i, p[0], p[1])
			}
		}
		if len(g.Procs) != len(w.Procs) {
			t.Fatalf("%s: tick %d column width %d, want %d", label, i, len(g.Procs), len(w.Procs))
		}
		for slot := range w.Procs {
			if g.Procs[slot] != w.Procs[slot] {
				t.Fatalf("%s: tick %d slot %d mismatch: %v vs %v", label, i, slot, g.Procs[slot], w.Procs[slot])
			}
		}
	}
	if got.info.Ticks != want.info.Ticks || got.info.Duration != want.info.Duration {
		t.Fatalf("%s: info %d/%v, want %d/%v", label,
			got.info.Ticks, got.info.Duration, want.info.Ticks, want.info.Duration)
	}
	if len(got.info.Ends) != len(want.info.Ends) || got.info.Roster.Len() != want.info.Roster.Len() {
		t.Fatalf("%s: Ends %v, want %v", label, got.info.Ends, want.info.Ends)
	}
	for slot, at := range want.info.Ends {
		if got.info.Roster.ID(slot) != want.info.Roster.ID(slot) || got.info.Ends[slot] != at {
			t.Fatalf("%s: slot %d (%s) ends at %v, want %s at %v", label, slot,
				got.info.Roster.ID(slot), got.info.Ends[slot], want.info.Roster.ID(slot), at)
		}
	}
}

// TestSegmentEngineMatchesPerTick is the engine's golden suite: across
// the edge-case scenario table, StreamSegments flattened to ticks and
// Simulate are Float64bits-identical to the per-tick reference loop, and
// the runs actually coalesce ticks into fewer segments.
func TestSegmentEngineMatchesPerTick(t *testing.T) {
	for _, sc := range segScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			want := perTickReference(t, sc.cfg, sc.procs, sc.dur)
			got, segments := captureSegments(t, sc.cfg, sc.procs, sc.dur)
			requireIdentical(t, "segments vs reference", want, got)
			requireIdentical(t, "Simulate vs reference", want, simulateCapture(t, sc.cfg, sc.procs, sc.dur))
			if segments >= len(want.recs) && len(want.recs) > 1 {
				t.Errorf("run used %d segments over %d ticks — no coalescing", segments, len(want.recs))
			}
		})
	}
}

// TestStreamBatchSegmentsMatchesPerTick pins the batched entry point: for
// every repetition, StreamBatchSegments flattened to ticks matches the
// per-tick reference loop under that repetition's seed bit for bit, with
// yields arriving rep-ascending within each segment.
func TestStreamBatchSegmentsMatchesPerTick(t *testing.T) {
	seeds := []int64{3, 41, 59}
	for _, sc := range segScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			got, info := captureBatch(t, sc.cfg, sc.procs, sc.dur, seeds)
			for rep, seed := range seeds {
				solo := sc.cfg
				solo.Seed = seed
				requireIdentical(t, "batch segments", perTickReference(t, solo, sc.procs, sc.dur), tickCapture{got[rep], info})
			}
		})
	}
}

// TestChangePointTicks unit-tests the enumeration: tick 0 is always
// present, zero-duration phases collapse onto their neighbours' edges,
// duplicate and beyond-horizon points are dropped, unaligned edges round
// up via ceilTick, and durations close enough to the int64 ceiling to
// overflow the ceiling division decline (ok=false → per-tick fallback).
func TestChangePointTicks(t *testing.T) {
	tick := 100 * time.Millisecond
	w := workload.Workload{
		Name: "cp", Kind: workload.App, Mix: workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6},
		Script: []workload.Phase{
			{Duration: 250 * time.Millisecond, Threads: 1, Intensity: 1, Util: 1},
			{Duration: 0, Threads: 2, Intensity: 1, Util: 1},
			{Duration: 350 * time.Millisecond, Threads: 1, Intensity: 1, Util: 1},
		},
	}
	procs := []Proc{
		{ID: "a", Workload: w, Threads: 1},                                                       // edges at 250ms→tick 3, 600ms→tick 6
		{ID: "b", Workload: w, Threads: 1, Start: 150 * time.Millisecond},                        // start tick 2, edges at 400ms→4, 750ms→8
		{ID: "c", Workload: w, Threads: 1, Start: 200 * time.Millisecond, Stop: 5 * time.Second}, // start tick 2 (dup), stop beyond horizon
	}
	cps, _, ok := changePointTicks(procs, tick, 800*time.Millisecond, 8, nil, nil)
	if !ok {
		t.Fatal("feasible enumeration declined")
	}
	// a: boundaries 250→3, 600→6. b: start 150→2, shifted 400→4, 750→8
	// (past the 8-tick horizon, dropped). c: start 200→2 (dup), shifted
	// 450→5, 850 ≥ maxDur dropped; stop 5 s ≥ maxDur dropped.
	want := []int64{0, 2, 3, 4, 5, 6}
	if len(cps) != len(want) {
		t.Fatalf("change-points %v, want %v", cps, want)
	}
	for i := range want {
		if cps[i] != want[i] {
			t.Fatalf("change-points %v, want %v", cps, want)
		}
	}

	// A horizon at the representable ceiling cannot be proven without
	// overflowing ceilTick's arithmetic: the enumeration must decline.
	huge := time.Duration(math.MaxInt64 - 1)
	if _, _, ok := changePointTicks(procs, tick, huge, math.MaxInt64/int64(tick), nil, nil); ok {
		t.Fatal("near-overflow horizon did not decline")
	}

	// A phase boundary that would overflow the start shift is skipped, not
	// wrapped into a bogus change-point.
	far := Proc{ID: "far", Workload: w, Threads: 1, Start: time.Duration(math.MaxInt64 - int64(200*time.Millisecond))}
	cps, _, ok = changePointTicks([]Proc{far}, tick, time.Second, 10, nil, nil)
	if !ok {
		t.Fatal("overflow-guarded boundary declined the whole enumeration")
	}
	for _, k := range cps[1:] {
		if k < 0 || k >= 10 {
			t.Fatalf("out-of-range change-point %d", k)
		}
	}
}
