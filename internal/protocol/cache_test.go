package protocol

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
)

// smallCampaign builds a short multi-model campaign: every stress pair at
// sizes 1 and 2 on SMALL INTEL, 6 s runs, all paper model families.
func smallCampaign(t *testing.T) (Context, []Scenario, func(map[string]division.Baseline) []models.Factory) {
	t.Helper()
	// 15 s runs: long enough for PowerAPI's 10 s learning window to leave
	// scored ticks, short enough to keep the test fast.
	ctx := labSmall()
	ctx.RunFor = 15 * time.Second
	ctx.StableWindow = 4 * time.Second
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod", "int64"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	factories := func(map[string]division.Baseline) []models.Factory {
		return []models.Factory{
			models.NewScaphandre(),
			models.NewPowerAPI(models.DefaultPowerAPIConfig()),
			models.NewKepler(),
		}
	}
	return ctx, scenarios, factories
}

// memoOnOff proves the cache invisible to a campaign's results: it runs
// campaign with no cache scope, then twice in one fresh scope (the first
// pass fills the tiers, the second is served from them), and requires all
// three results deeply equal. It returns the scope for statistics checks.
func memoOnOff[T any](t *testing.T, campaign func(*CacheScope) (T, error)) *CacheScope {
	t.Helper()
	want, err := campaign(nil)
	if err != nil {
		t.Fatal(err)
	}
	scope := NewCacheScope(0)
	for pass := 0; pass < 2; pass++ {
		got, err := campaign(scope)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: memoized results differ from unmemoized", pass)
		}
	}
	return scope
}

// TestMemoizationIdenticalErrorTable proves the pair campaign cache-blind:
// every model's evaluations — AEs, truth and estimated shares, scatter
// points, scored tick counts — agree with and without a cache scope, and
// the memoized campaign's second pass is served from the scope.
func TestMemoizationIdenticalErrorTable(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := smallCampaign(t)
	scope := memoOnOff(t, func(c *CacheScope) (map[string][]Evaluation, error) {
		ctx.Cache = c
		return EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0)
	})
	if st := scope.Stats(); st.Hits == 0 {
		t.Errorf("memoized campaign recorded no cache hits: %+v", st)
	}
}

// TestMemoizationIdenticalTraffic proves the traffic campaign cache-blind.
func TestMemoizationIdenticalTraffic(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)
	scope := memoOnOff(t, func(c *CacheScope) (map[string][]TrafficEvaluation, error) {
		ctx.Cache = c
		return trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	})
	if st := scope.Stats(); st.Hits == 0 {
		t.Errorf("memoized campaign recorded no cache hits: %+v", st)
	}
}

// TestMemoizationIdenticalTimeline proves a TimelineCampaign cache-blind
// too, phase 1 included.
func TestMemoizationIdenticalTimeline(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	ctx.RunFor = 6 * time.Second
	ctx.StableWindow = 3 * time.Second
	a0 := mustStressApp(t, "int64", 1)
	a0.ID = "P0"
	a1 := mustStressApp(t, "int64", 1)
	a1.ID = "P1"
	apps := []timelineApp{
		{App: a0},
		{App: a1, Start: 3 * time.Second, Stop: 8 * time.Second},
	}
	memoOnOff(t, func(c *CacheScope) (TrafficEvaluation, error) {
		ctx.Cache = c
		baselines, err := Measure(context.Background(), ctx, []AppSpec{a0, a1})
		if err != nil {
			return TrafficEvaluation{}, err
		}
		return evaluateTimeline(ctx, apps, models.NewScaphandre(), baselines, 10*time.Second)
	})
}

// TestRunKeyDiscriminates checks the fingerprint separates every input the
// simulation depends on, and normalises process order away.
func TestRunKeyDiscriminates(t *testing.T) {
	t.Parallel()
	base := machine.Config{Spec: cpumodel.SmallIntel(), NoiseStddev: 0.25, Seed: 1}
	app := mustStressApp(t, "fibonacci", 2)
	procs := []machine.Proc{app.proc()}
	key := runKey(base, procs, 10*time.Second)

	mutations := map[string]func() string{
		"seed": func() string {
			c := base
			c.Seed = 2
			return runKey(c, procs, 10*time.Second)
		},
		"turbo": func() string {
			c := base
			c.Turbo = true
			return runKey(c, procs, 10*time.Second)
		},
		"maxfreq": func() string {
			c := base
			c.MaxFreq = 2e9
			return runKey(c, procs, 10*time.Second)
		},
		"duration": func() string {
			return runKey(base, procs, 11*time.Second)
		},
		"threads": func() string {
			a := mustStressApp(t, "fibonacci", 3)
			return runKey(base, []machine.Proc{a.proc()}, 10*time.Second)
		},
		"quota": func() string {
			p := app.proc()
			p.CPUQuota = 0.5
			return runKey(base, []machine.Proc{p}, 10*time.Second)
		},
		// Churn fields: two rosters identical except for one instance's
		// arrival or exit time must never share a memoized run.
		"start-offset": func() string {
			p := app.proc()
			p.Start = 2 * time.Second
			return runKey(base, []machine.Proc{p}, 10*time.Second)
		},
		"stop-offset": func() string {
			p := app.proc()
			p.Stop = 8 * time.Second
			return runKey(base, []machine.Proc{p}, 10*time.Second)
		},
		"workload-cost": func() string {
			a := app
			cost := map[string]units.Watts{}
			for k, v := range a.Workload.Cost {
				cost[k] = v + 1
			}
			a.Workload.Cost = cost
			return runKey(base, []machine.Proc{a.proc()}, 10*time.Second)
		},
	}
	for name, mutate := range mutations {
		if mutate() == key {
			t.Errorf("mutation %q did not change the run key", name)
		}
	}

	// Permuting the process list must NOT change the key: the simulator
	// schedules in ID order.
	a2 := mustStressApp(t, "matrixprod", 1)
	ab := runKey(base, []machine.Proc{app.proc(), a2.proc()}, 10*time.Second)
	ba := runKey(base, []machine.Proc{a2.proc(), app.proc()}, 10*time.Second)
	if ab != ba {
		t.Error("process order changed the run key")
	}
}

// TestMemoizationSingleflight hammers one baseline key from many
// goroutines: all callers must receive the same baseline and the solo run
// must have been simulated exactly once (one miss, the rest hits).
func TestMemoizationSingleflight(t *testing.T) {
	t.Parallel()
	scope := NewCacheScope(0)
	cfg := machine.Config{Spec: cpumodel.SmallIntel(), Seed: 7}
	app := mustStressApp(t, "int64", 1)

	const n = 16
	got := make([]division.Baseline, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := scope.baselineCached(cfg, []machine.Proc{app.proc()}, 3*time.Second, time.Second, app.ID)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received %+v, caller 0 %+v", i, got[i], got[0])
		}
	}
	st := scope.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, n-1)
	}
}

// TestMemoizationLimit checks the baseline tier's byte cap keeps the table
// bounded under FIFO eviction and that evicted keys recompute correctly.
func TestMemoizationLimit(t *testing.T) {
	t.Parallel()
	// Two records of int64-1's ~500-byte key fit; a third evicts the oldest.
	const limit = 1200
	scope := NewCacheScope(limit)
	app := mustStressApp(t, "int64", 1)
	measure := func(seed int64) division.Baseline {
		t.Helper()
		cfg := machine.Config{Spec: cpumodel.SmallIntel(), Seed: seed}
		b, err := scope.baselineCached(cfg, []machine.Proc{app.proc()}, time.Second, 500*time.Millisecond, app.ID)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for seed := int64(1); seed <= 4; seed++ {
		measure(seed)
	}
	st := scope.Stats()
	if st.SummaryEntries != 2 || st.SummaryBytes > limit || st.Evictions != 2 {
		t.Errorf("after 4 records under a %d-byte cap: %+v, want 2 entries and 2 evictions", limit, st)
	}
	// Seed 1 was evicted; asking again recomputes (a miss) and still
	// agrees with a direct, uncached extraction.
	got := measure(1)
	if st2 := scope.Stats(); st2.Misses != st.Misses+1 {
		t.Errorf("evicted key served from the cache: %+v", st2)
	}
	cfg := machine.Config{Spec: cpumodel.SmallIntel(), Seed: 1}
	want, err := soloBaseline(cfg, []machine.Proc{app.proc()}, time.Second, 500*time.Millisecond, app.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("recomputed baseline %+v differs from direct extraction %+v", got, want)
	}
}

// labScopeCampaign is a short lab pair table on SMALL INTEL with every
// paper model: all pairs of three stress functions at sizes 1 and 2.
func labScopeCampaign(t *testing.T) (Context, []Scenario, func(map[string]division.Baseline) []models.Factory) {
	t.Helper()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod", "int64"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		return goldenFactories(baselines, ctx.Machine.Spec)
	}
	return ctx, scenarios, factories
}

// TestWarmRepeatBitIdentical runs one lab campaign twice in the same
// scope. The second pass takes every phase 1 baseline from the scope —
// one hit per application, no new miss or entry — re-scores every
// scenario, and its rows are bit-identical to the first pass's.
func TestWarmRepeatBitIdentical(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := labScopeCampaign(t)
	ctx.Cache = NewCacheScope(0)
	run := func() map[string][]Evaluation {
		t.Helper()
		got, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run()
	cold := ctx.Cache.Stats()
	got := run()
	warm := ctx.Cache.Stats()
	if warm.Misses != cold.Misses || warm.SummaryEntries != cold.SummaryEntries ||
		warm.Hits-cold.Hits != uint64(cold.SummaryEntries) {
		t.Errorf("warm pass did not reuse exactly the phase 1 baselines: cold %+v, warm %+v", cold, warm)
	}
	if len(got) != len(want) {
		t.Fatalf("%d models warm, %d cold", len(got), len(want))
	}
	for name, wantEvs := range want {
		gotEvs := got[name]
		if len(gotEvs) != len(wantEvs) {
			t.Fatalf("model %s: %d rows warm, %d cold", name, len(gotEvs), len(wantEvs))
		}
		for i := range wantEvs {
			compareStreamingEvaluations(t, name, wantEvs[i], gotEvs[i])
		}
	}
}

// TestScopeRetainsOnlyBaselines pins what a lab campaign leaves in its
// scope: one baseline record per distinct application and nothing per
// scenario. The scope's whole footprint is SummaryBytes, and it is the
// same whether the applications are spread over the full pair table or
// over the few pairs that cover them.
func TestScopeRetainsOnlyBaselines(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := labScopeCampaign(t)
	stats := func(scenarios []Scenario) MemoStats {
		t.Helper()
		ctx.Cache = NewCacheScope(0)
		if _, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0); err != nil {
			t.Fatal(err)
		}
		return ctx.Cache.Stats()
	}
	// cover is the shortest prefix of the table that names every
	// application.
	apps := len(BaselineAppsOf(scenarios))
	cover := scenarios
	for n := 1; n < len(scenarios); n++ {
		if len(BaselineAppsOf(scenarios[:n])) == apps {
			cover = scenarios[:n]
			break
		}
	}
	if len(cover) >= len(scenarios) {
		t.Fatalf("no proper prefix of the %d scenarios covers all %d applications", len(scenarios), apps)
	}
	full, few := stats(scenarios), stats(cover)
	if full.SummaryEntries != apps {
		t.Errorf("full table: %d baseline entries, want one per application (%d)", full.SummaryEntries, apps)
	}
	if full.EvalBytes != 0 || full.SummaryBytes <= 0 {
		t.Errorf("full table: scope footprint %+v, want SummaryBytes only", full)
	}
	if few.SummaryEntries != full.SummaryEntries || few.SummaryBytes != full.SummaryBytes {
		t.Errorf("%d scenarios retain %d entries / %d bytes, %d scenarios over the same applications %d / %d",
			len(cover), few.SummaryEntries, few.SummaryBytes, len(scenarios), full.SummaryEntries, full.SummaryBytes)
	}
}
