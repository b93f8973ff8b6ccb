package protocol

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
)

// TestScoringTailAllocsIndependentOfLength pins the one scoring tail per
// campaign kind: scoring one scenario — the truth per presence run, every
// model's running Eq 5 sums (against two objectives for the pair), then
// writing the rows — allocates the same number of times over a short and a
// long run, so nothing in the tail allocates per tick. It also pins the
// pooled scoring view: refilling a released view with the scenario's
// segments reproduces the view and, outside the race detector (whose pools
// drop items at random), allocates nothing at either length. Where a kind
// pins evaluateAllocs, a whole one-scenario Evaluate of the short run —
// the service's shard — makes exactly that many allocations: its row
// slab, its models, its roster and label, and nothing the pools could
// hold.
func TestScoringTailAllocsIndependentOfLength(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	pair := Scenario{Apps: []AppSpec{mustStressApp(t, "fibonacci", 2), mustStressApp(t, "matrixprod", 1)}}
	var timeline Scenario
	for _, ta := range fig11Timeline(t) {
		a := ta.App
		a.StartAt, a.StopAt = ta.Start, ta.Stop
		timeline.Apps = append(timeline.Apps, a)
	}
	for _, c := range []struct {
		name        string
		kind        CampaignKind
		s           Scenario
		objectives  []Objective
		short, long time.Duration
		// minRatio is the least long/short tick ratio that makes the
		// comparison meaningful.
		minRatio float64
		// evaluateAllocs pins a one-scenario Evaluate's allocations (0:
		// not pinned).
		evaluateAllocs float64
	}{
		{"pairs", PairCampaign, pair, []Objective{ObjectiveActive, ObjectiveResidualAware}, 30 * time.Second, 120 * time.Second, 3, 0},
		{"traffic", TrafficCampaign, trafficScenarios(t)[0], nil, 10 * time.Second, 60 * time.Second, 5, 21},
		{"timeline", TimelineCampaign, timeline, nil, 60 * time.Second, 240 * time.Second, 3, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			baselines, err := Measure(context.Background(), ctx, BaselineAppsOf([]Scenario{c.s}))
			if err != nil {
				t.Fatal(err)
			}
			fs := goldenFactories(baselines, ctx.Machine.Spec)
			res := Result{n: 1, pairs: newPairTable([]Scenario{c.s}, len(fs), len(c.objectives)), traffic: make([]TrafficEvaluation, len(fs))}
			var allocs, ticks []float64
			for _, length := range []time.Duration{c.short, c.long} {
				lctx := ctx
				lctx.RunFor = length
				p := newCampaignPlan(lctx, fs, c.kind)
				p.baselines, p.objectives = baselines, c.objectives
				run := p.run(c.s)
				if err := p.truthSource(c.s, &run, res, 0); err != nil {
					t.Fatal(err)
				}
				replay, err := p.stream(context.Background(), &run)
				if err != nil {
					t.Fatal(err)
				}
				view := run.view
				score := func() {
					if err := p.score(c.s, &run, replay, res, 0); err != nil {
						t.Fatal(err)
					}
				}
				score()
				allocs = append(allocs, testing.AllocsPerRun(20, score))
				ticks = append(ticks, float64(len(view.power)))
				replay.Release()

				segs := viewSegments(view)
				refill := func() *scoringView {
					v := newScoringView(view.n, len(view.power), view.interval)
					for i := range segs {
						v.observeSegment(&segs[i])
					}
					return v
				}
				v := refill()
				if !slices.Equal(v.power, view.power) || !slices.Equal(v.runStart, view.runStart) || !slices.Equal(v.presence, view.presence) {
					t.Fatalf("%v: refilled view differs from the streamed one", length)
				}
				v.release()
				view.release()
				if n := testing.AllocsPerRun(20, func() { refill().release() }); n != 0 && !raceEnabled {
					t.Errorf("%v: refilling a pooled view allocates %v times, want 0", length, n)
				}
			}
			if ticks[1] < c.minRatio*ticks[0] {
				t.Fatalf("runs scored %v ticks, want the %v run ≥%v× the %v one", ticks, c.long, c.minRatio, c.short)
			}
			if allocs[0] != allocs[1] {
				t.Errorf("scoring tail allocs: %v at %v, %v at %v; want equal", allocs[0], c.short, allocs[1], c.long)
			}
			if c.evaluateAllocs == 0 || raceEnabled {
				return
			}
			sctx := ctx
			sctx.RunFor = c.short
			one := Campaign{Kind: c.kind, Scenarios: []Scenario{c.s}, Factories: FixedFactories(fs...), Baselines: baselines, Objectives: c.objectives, Window: c.short}
			evaluate := func() {
				if _, err := Evaluate(context.Background(), sctx, one); err != nil {
					t.Fatal(err)
				}
			}
			evaluate()
			if n := testing.AllocsPerRun(50, evaluate); n != c.evaluateAllocs {
				t.Errorf("one-scenario Evaluate allocates %v times, want %v", n, c.evaluateAllocs)
			}
		})
	}
}

// TestPooledScratchNotAliased runs one-scenario traffic and pair campaigns
// of roster widths 2 to 5, interleaved, on concurrent goroutines, so every
// pooled buffer — scoring views with their processes, IDs and slot
// baselines, replay arenas with their segment views, simulator cursors —
// passes between scenarios of different shapes. Every row must be
// bit-identical to a fresh sequential run's, and the rows of each
// goroutine's first Result must be unchanged after its later scenarios
// reused the pools.
func TestPooledScratchNotAliased(t *testing.T) {
	t.Parallel()
	pctx, pairs, pfactories := labScopeCampaign(t)
	combos, err := StressCombos([]string{"fibonacci", "matrixprod", "int64"}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs[:3:3], combos...)
	tctx, traffic, tfactories := trafficGoldenSetup(t)
	pb, err := Measure(context.Background(), pctx, BaselineAppsOf(pairs))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Measure(context.Background(), tctx, BaselineAppsOf(traffic))
	if err != nil {
		t.Fatal(err)
	}
	type unit struct {
		ctx Context
		c   Campaign
	}
	var units []unit
	for i := range max(len(pairs), len(traffic)) {
		if i < len(traffic) {
			units = append(units, unit{tctx, Campaign{Kind: TrafficCampaign, Scenarios: traffic[i : i+1], Factories: tfactories, Baselines: tb, Window: trafficTestWindow}})
		}
		if i < len(pairs) {
			units = append(units, unit{pctx, Campaign{Kind: PairCampaign, Scenarios: pairs[i : i+1], Factories: pfactories, Baselines: pb}})
		}
	}
	digest := func(u unit) (Result, string, error) {
		res, err := Evaluate(context.Background(), u.ctx, u.c)
		if err != nil {
			return res, "", err
		}
		return res, rowDigest(res, u.c.Kind), nil
	}
	want := make([]string, len(units))
	for i, u := range units {
		if _, want[i], err = digest(u); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first Result
			for k := 0; k < 2*len(units); k++ {
				i := (g + k) % len(units)
				res, got, err := digest(units[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, unit %d: rows differ from the sequential run:\n got %s\nwant %s", g, i, got, want[i])
				}
				if k == 0 {
					first = res
				}
			}
			if got := rowDigest(first, units[g].c.Kind); got != want[g] {
				t.Errorf("goroutine %d: its first Result changed after later scenarios reused the pools:\n got %s\nwant %s", g, got, want[g])
			}
		}()
	}
	wg.Wait()
}

// rowDigest renders every row of a one-scenario Result exactly: %v prints
// each float in its shortest round-trip form and each map in key order.
func rowDigest(res Result, kind CampaignKind) string {
	var b strings.Builder
	for m := range res.Factories {
		if kind == PairCampaign {
			ev := res.Pairs(m, 0)[0]
			fmt.Fprintf(&b, "%s %s %v %v %v %+v %d\n", ev.Scenario.Label(), ev.Model, ev.AE, ev.Truth, ev.EstShare, ev.Point, ev.ScoredTicks)
		} else {
			ev := res.Traffic(m)[0]
			fmt.Fprintf(&b, "%s %s %v %v %d %d\n", ev.Scenario.Label(), ev.Model, ev.AE, ev.Coverage, ev.BusyTicks, ev.ScoredTicks)
		}
	}
	return b.String()
}

// viewSegments rebuilds a scoring view's input: one segment per presence
// run, carrying the run's per-tick power and a roster column whose slots
// are present exactly where the run's column is.
func viewSegments(v *scoringView) []machine.Segment {
	segs := make([]machine.Segment, len(v.runStart))
	for r := range segs {
		procs := make([]machine.ProcTick, v.n)
		for slot, present := range v.column(r) {
			if present {
				procs[slot].Threads = 1
			}
		}
		segs[r] = machine.Segment{Rec: &machine.TickRecord{Procs: procs}, Powers: v.power[v.runStart[r]:v.runEnd(r)]}
	}
	return segs
}
