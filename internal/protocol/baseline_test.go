package protocol

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/rng"
	"powerdiv/internal/units"
)

// fullRunBaseline is the reference phase 1 extraction: simulate app's solo
// run into a whole machine.Run, bypassing every cache tier, and extract
// its baseline with runBaseline. The streamed path (soloBaseline) must
// agree with it bit for bit.
func fullRunBaseline(ctx Context, app AppSpec) (division.Baseline, error) {
	app = app.baselineSpec()
	cfg := ctx.Machine
	cfg.Seed = rng.Derive(ctx.Seed, "solo", app.ID)
	return runBaseline(cfg, []machine.Proc{app.proc()}, ctx.RunFor, ctx.StableWindow, app.ID)
}

// runBaseline simulates procs into a whole machine.Run and averages the
// noise-free power, idle+residual and id's busy cores over the
// least-extreme stable window of the noise-free trace, tick by tick,
// looking id up in the run's roster.
func runBaseline(cfg machine.Config, procs []machine.Proc, maxDur, stable time.Duration, id string) (division.Baseline, error) {
	run, err := machine.Simulate(cfg, procs, maxDur)
	if err != nil {
		return division.Baseline{}, err
	}
	power := run.TruePowerSeries()
	from, to, err := power.StableWindowBounds(stable)
	if err != nil {
		from, to = power.Start(), power.End()
	}
	to++
	var total, residIdle, cores float64
	var n int
	tick := run.Tick()
	slot, hasSlot := run.Roster.Slot(id)
	for _, rec := range run.Ticks {
		if rec.At < from || rec.At >= to {
			continue
		}
		total += float64(rec.TruePower)
		residIdle += float64(rec.Idle + rec.Residual)
		if hasSlot {
			if pt := rec.Procs[slot]; pt.Present() {
				cores += pt.CPUTime.Utilization(tick)
			}
		}
		n++
	}
	if n == 0 {
		return division.Baseline{}, fmt.Errorf("empty stable window for %s", id)
	}
	return division.Baseline{
		ID:       id,
		Total:    units.Watts(total / float64(n)),
		Residual: units.Watts(residIdle / float64(n)),
		Cores:    cores / float64(n),
	}, nil
}

// TestBaselineSummaryMatchesFull pins the streamed path of phase 1: the
// Baseline soloBaseline reduces a streamed solo run to must be
// bit-identical to the one fullRunBaseline extracts from the full run, on
// both machines (noise on, so the stable-window selection is non-trivial).
func TestBaselineSummaryMatchesFull(t *testing.T) {
	t.Parallel()
	for _, sp := range []struct {
		spec cpumodel.Spec
		ht   bool
	}{
		{cpumodel.SmallIntel(), false},
		{cpumodel.Dahu(), true},
	} {
		ctx := goldenContext(sp.spec, sp.ht)
		for _, fn := range []string{"fibonacci", "matrixprod", "int64"} {
			app, err := StressApp(fn, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fullRunBaseline(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			got, err := measureOne(ctx, app)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != want.ID ||
				math.Float64bits(float64(got.Total)) != math.Float64bits(float64(want.Total)) ||
				math.Float64bits(float64(got.Residual)) != math.Float64bits(float64(want.Residual)) ||
				math.Float64bits(got.Cores) != math.Float64bits(want.Cores) {
				t.Errorf("%s/%s: streamed baseline %+v != full %+v", sp.spec.Name, app.ID, got, want)
			}
		}
	}
}

// TestBaselineSummaryHorizonMaxInt64 pins phase 1 at the top of the int64
// time line: an application whose script ends at 2.0 s has the same
// baseline whether the solo run's horizon is an hour or math.MaxInt64.
// Scratch reserved by the horizon's tick count cannot be allocated.
func TestBaselineSummaryHorizonMaxInt64(t *testing.T) {
	t.Parallel()
	app := scriptedApp("scripted-2", 0.5)
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.StableWindow = time.Second
	ctx.RunFor = time.Hour
	want, err := measureOne(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	ctx.RunFor = math.MaxInt64
	got, err := measureOne(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID ||
		math.Float64bits(float64(got.Total)) != math.Float64bits(float64(want.Total)) ||
		math.Float64bits(float64(got.Residual)) != math.Float64bits(float64(want.Residual)) ||
		math.Float64bits(got.Cores) != math.Float64bits(want.Cores) {
		t.Errorf("baseline at MaxInt64 %+v, at an hour %+v", got, want)
	}
}

// TestSoloBaselineReuseMatchesFull pins pooled phase 1: solo baselines
// extracted one after another — after a longer run of another
// application, and from a wider roster in either order — are
// bit-identical to the whole-run reference. Scratch that kept a previous
// run's ticks or segments would show up here, and so would a lookup of
// the application's column by its position in procs instead of in
// sorted-ID order: matrixprod-4 sorts after fibonacci-2, so {a, b} puts
// a's column at slot 1.
func TestSoloBaselineReuseMatchesFull(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.Dahu(), true)
	a, err := StressApp("matrixprod", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		procs  []machine.Proc
		maxDur time.Duration
		id     string
	}{
		{[]machine.Proc{a.proc()}, 3 * ctx.RunFor, a.ID},
		{[]machine.Proc{b.proc()}, ctx.RunFor, b.ID},
		{[]machine.Proc{b.proc(), a.proc()}, ctx.RunFor, a.ID},
		{[]machine.Proc{a.proc(), b.proc()}, ctx.RunFor, a.ID},
		{[]machine.Proc{b.proc()}, ctx.RunFor / 2, b.ID},
	}
	for i, r := range runs {
		cfg := ctx.Machine
		cfg.Seed = int64(i + 1)
		want, err := runBaseline(cfg, r.procs, r.maxDur, ctx.StableWindow, r.id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := soloBaseline(cfg, r.procs, r.maxDur, ctx.StableWindow, r.id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBaseline(got, want) {
			t.Errorf("run %d: pooled baseline %+v, full run %+v", i, got, want)
		}
	}
}

// raceEnabled reports a race-detector build (see race_test.go).
var raceEnabled bool

// TestSoloBaselineBytesIndependentOfRunLength pins pooled phase 1: once
// warm, a solo baseline allocates the same bytes per call — within 1 kB —
// whether the run is 30 s or 120 s, so nothing phase 1 allocates per call
// grows with the run's ticks. The race detector drops pooled items at
// random, so the bound only holds without it.
func TestSoloBaselineBytesIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctx.Machine
	cfg.Seed = rng.Derive(ctx.Seed, "solo", app.ID)
	procs := []machine.Proc{app.proc()}
	var bytes []int64
	for _, runFor := range []time.Duration{30 * time.Second, 120 * time.Second} {
		if _, err := soloBaseline(cfg, procs, runFor, ctx.StableWindow, app.ID); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				soloBaseline(cfg, procs, runFor, ctx.StableWindow, app.ID)
			}
		})
		bytes = append(bytes, res.AllocedBytesPerOp())
	}
	if d := bytes[1] - bytes[0]; d > 1024 || d < -1024 {
		t.Errorf("soloBaseline allocates %d B/call at 30 s and %d B/call at 120 s; want within 1 kB", bytes[0], bytes[1])
	}
}
