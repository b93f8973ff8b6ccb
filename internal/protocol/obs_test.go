package protocol

import (
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/obs"
)

// TestObsCountersMatchMemoStats runs a memoized multi-model campaign twice
// (cold, then with phase 1 served from the baseline tier) with the metrics
// registry enabled and asserts the exported cache counters agree exactly
// with its cache scope's statistics — both are incremented at the same
// sites, and this test pins them there. It also checks the scenario
// lifecycle metrics: every started scenario completes, each completion lands
// one latency observation, and the worker-occupancy gauge reads zero once
// the pool drains.
func TestObsCountersMatchMemoStats(t *testing.T) {
	obs.Default().Reset()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.Default().Reset()
	})
	scope := NewCacheScope(0)
	ctx := labSmall()
	ctx.Cache = scope
	ctx.RunFor = 6 * time.Second
	ctx.StableWindow = 2 * time.Second
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod", "int64"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	factories := func(map[string]division.Baseline) []models.Factory {
		return []models.Factory{models.NewScaphandre(), models.NewKepler()}
	}
	const passes = 2
	for pass := 0; pass < passes; pass++ {
		results, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("got %d models, want 2", len(results))
		}
	}

	st := scope.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("campaign exercised no cache traffic: %+v", st)
	}
	if got := obsCacheHits.Value(); got != st.Hits {
		t.Errorf("cache_hits_total = %d, scope hits = %d", got, st.Hits)
	}
	if got := obsCacheMisses.Value(); got != st.Misses {
		t.Errorf("cache_misses_total = %d, scope misses = %d", got, st.Misses)
	}
	if got := obsCacheEvictions.Value(); got != 0 {
		t.Errorf("cache_evictions_total = %d, want 0 (campaign fits the default limit)", got)
	}

	started, completed := obsScenariosStarted.Value(), obsScenariosCompleted.Value()
	// EvaluateModelsStreaming scores all models inside one evaluation per
	// scenario. Baseline solo runs go through the cache but are not
	// scenario evaluations.
	want := uint64(passes * len(scenarios))
	if started != want || completed != want {
		t.Errorf("scenarios started/completed = %d/%d, want %d/%d", started, completed, want, want)
	}
	if got := obsScenarioSeconds.Count(); got != completed {
		t.Errorf("scenario_seconds count = %d, want one observation per completion (%d)", got, completed)
	}
	if obsScenarioSeconds.Sum() <= 0 {
		t.Error("scenario_seconds sum is not positive")
	}
	if got := obsWorkersBusy.Value(); got != 0 {
		t.Errorf("workers_busy = %v after the pool drained, want 0", got)
	}
}

// TestObsDisabledCampaignRecordsNothing proves the default-off registry
// stays silent through a campaign: instrumented code paths must not leak
// metric updates when observability is disabled.
func TestObsDisabledCampaignRecordsNothing(t *testing.T) {
	obs.Enable(false)
	obs.Default().Reset()
	scope := NewCacheScope(0)
	ctx := labSmall()
	ctx.Cache = scope
	ctx.RunFor = 4 * time.Second
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod"}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pairRows(ctx, scenarios, models.NewScaphandre()); err != nil {
		t.Fatal(err)
	}
	if st := scope.Stats(); st.Misses == 0 {
		t.Fatalf("campaign did not run: %+v", st)
	}
	for _, s := range obs.Default().Snapshots() {
		if s.Value != 0 || s.Count != 0 {
			t.Errorf("metric %s recorded %v/%d while disabled", s.Name, s.Value, s.Count)
		}
	}
}
