package protocol

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// fullRunBaseline is the reference phase 1 extraction: simulate app's solo
// run into a whole machine.Run, bypassing every cache tier, and average the
// noise-free power, idle+residual and busy cores over the least-extreme
// stable window of the noise-free trace, tick by tick. The digest path
// (RunSummary.baseline) must agree with it bit for bit.
func fullRunBaseline(ctx Context, app AppSpec) (division.Baseline, *machine.Run, error) {
	app = app.baselineSpec()
	cfg := ctx.Machine
	cfg.Seed = deriveSeed(ctx.Seed, "solo", app.ID)
	run, err := machine.Simulate(cfg, []machine.Proc{app.proc()}, ctx.RunFor)
	if err != nil {
		return division.Baseline{}, nil, err
	}
	power := run.TruePowerSeries()
	window, err := power.StableWindow(ctx.StableWindow)
	if err != nil {
		window = power
	}
	from, to := window.Start(), window.End()+1
	var total, residIdle, cores float64
	var n int
	tick := run.Tick()
	slot, hasSlot := run.Roster.Slot(app.ID)
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
		return division.Baseline{}, nil, fmt.Errorf("empty stable window for %s", app.ID)
	}
	return division.Baseline{
		ID:       app.ID,
		Total:    units.Watts(total / float64(n)),
		Residual: units.Watts(residIdle / float64(n)),
		Cores:    cores / float64(n),
	}, run, nil
}

// TestBaselineSummaryMatchesFull pins the digest path of phase 1: the
// Baseline computed from a RunSummary must be bit-identical to the one
// fullRunBaseline extracts from the full run, on both machines (noise on,
// so the stable-window selection is non-trivial).
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
			want, _, err := fullRunBaseline(ctx, app)
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
				t.Errorf("%s/%s: summary baseline %+v != full %+v", sp.spec.Name, app.ID, got, want)
			}
		}
	}
}

// TestRunSummaryShape pins the digest's layout against the run it stands
// in for: matching tick counts and per-tick values stored exactly as the
// run accessors would compute them.
func TestRunSummaryShape(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("rand", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctx.Machine
	cfg.Seed = deriveSeed(ctx.Seed, "solo", app.ID)
	_, run, err := fullRunBaseline(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := newRunSummary(cfg, []machine.Proc{app.proc()}, ctx.RunFor)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ticks != len(run.Ticks) || sum.Duration != run.Duration || sum.Tick != run.Tick() {
		t.Fatalf("shape: %d ticks/%v != %d/%v", sum.Ticks, sum.Duration, len(run.Ticks), run.Duration)
	}
	if len(sum.Power) != sum.Ticks || len(sum.CPUTime) != sum.Ticks*sum.Roster.Len() {
		t.Fatalf("slab lengths %d/%d off for %d ticks", len(sum.Power), len(sum.CPUTime), sum.Ticks)
	}
	slot, _ := sum.Roster.Slot(app.ID)
	for i, rec := range run.Ticks {
		if math.Float64bits(sum.Power[i]) != math.Float64bits(float64(rec.Power)) ||
			math.Float64bits(sum.TruePower[i]) != math.Float64bits(float64(rec.TruePower)) ||
			math.Float64bits(sum.ResidIdle[i]) != math.Float64bits(float64(rec.Idle+rec.Residual)) {
			t.Fatalf("tick %d traces differ", i)
		}
		if sum.CPUTime[i*sum.Roster.Len()+slot] != rec.Procs[slot].CPUTime {
			t.Fatalf("tick %d CPU time differs", i)
		}
	}
}

// TestBaselineSummaryHorizonMaxInt64 pins phase 1 at the top of the int64
// time line: an application whose script ends at 2.0 s has the same
// baseline whether the solo run's horizon is an hour or math.MaxInt64. A
// digest reserved by the horizon's tick count cannot be allocated.
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

// TestRunSummaryReuseMatchesFresh pins the reusable digest: a summary
// refilled after a longer run of another application, and then after a
// run of a wider roster, extracts baselines bit-identical to fresh
// summaries' — a refill that kept a previous run's ticks, roster or
// window series would show up here.
func TestRunSummaryReuseMatchesFresh(t *testing.T) {
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
		{[]machine.Proc{b.proc()}, ctx.RunFor / 2, b.ID},
	}
	reused := new(RunSummary)
	for i, r := range runs {
		cfg := ctx.Machine
		cfg.Seed = int64(i + 1)
		fresh, err := newRunSummary(cfg, r.procs, r.maxDur)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.baseline(ctx.StableWindow, r.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.fill(cfg, r.procs, r.maxDur); err != nil {
			t.Fatal(err)
		}
		got, err := reused.baseline(ctx.StableWindow, r.id)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Ticks != fresh.Ticks || len(reused.CPUTime) != len(fresh.CPUTime) || reused.Roster.Len() != fresh.Roster.Len() {
			t.Fatalf("run %d: reused shape %d ticks/%d slab, fresh %d/%d", i, reused.Ticks, len(reused.CPUTime), fresh.Ticks, len(fresh.CPUTime))
		}
		if got.ID != want.ID ||
			math.Float64bits(float64(got.Total)) != math.Float64bits(float64(want.Total)) ||
			math.Float64bits(float64(got.Residual)) != math.Float64bits(float64(want.Residual)) ||
			math.Float64bits(got.Cores) != math.Float64bits(want.Cores) {
			t.Errorf("run %d: reused baseline %+v, fresh %+v", i, got, want)
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
	cfg.Seed = deriveSeed(ctx.Seed, "solo", app.ID)
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
