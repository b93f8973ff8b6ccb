package protocol

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// cancelAfterErrs is a context.Context whose Err flips to Canceled after a
// fixed number of polls. The streaming pipeline checks cctx.Err() once per
// simulated tick, so this cancels deterministically "at tick k" without any
// timing dependence — unlike context.WithCancel fired from another
// goroutine, which races the simulator.
type cancelAfterErrs struct {
	context.Context
	remaining atomic.Int64
}

func newCancelAfterErrs(k int) *cancelAfterErrs {
	c := &cancelAfterErrs{Context: context.Background()}
	c.remaining.Store(int64(k))
	return c
}

func (c *cancelAfterErrs) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScenarioStreamingMatchesCampaign pins the service's sharding unit:
// evaluating one scenario at a time through a one-scenario Evaluate call
// reproduces the whole-campaign tables bit for bit, in any order, for
// pairs and traffic alike. This is what lets a resumed job skip completed
// scenarios without re-running them.
func TestScenarioStreamingMatchesCampaign(t *testing.T) {
	t.Parallel()
	pctx, pscenarios, pfactories := labScopeCampaign(t)
	tctx, tscenarios, tfactories := trafficGoldenSetup(t)
	for _, c := range []struct {
		name string
		ctx  Context
		c    Campaign
	}{
		{"pairs", pctx, Campaign{Kind: PairCampaign, Scenarios: pscenarios, Factories: pfactories}},
		{"traffic", tctx, Campaign{Kind: TrafficCampaign, Scenarios: tscenarios, Factories: tfactories, Window: trafficTestWindow}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var baselines map[string]division.Baseline
			factories := c.c.Factories
			c.c.Factories = func(bs map[string]division.Baseline) []models.Factory {
				baselines = bs
				return factories(bs)
			}
			want, err := Evaluate(context.Background(), c.ctx, c.c)
			if err != nil {
				t.Fatal(err)
			}
			one := c.c
			one.Baselines, one.Factories = baselines, FixedFactories(want.Factories...)
			// Reverse order: per-scenario results must not depend on
			// evaluation order.
			for i := len(c.c.Scenarios) - 1; i >= 0; i-- {
				one.Scenarios = c.c.Scenarios[i : i+1]
				got, err := Evaluate(context.Background(), c.ctx, one)
				if err != nil {
					t.Fatal(err)
				}
				for m, f := range want.Factories {
					if c.c.Kind == PairCampaign {
						compareStreamingEvaluations(t, f.Name, want.Pairs(m, 0)[i], got.Pairs(m, 0)[0])
					} else {
						compareTrafficEvaluations(t, f.Name, want.Traffic(m)[i], got.Traffic(m)[0])
					}
				}
			}
		})
	}
}

// waitWorkerBudgetDrain asserts the shared worker budget returns to zero
// shortly after a cancelled campaign's entry point returns. forEachIndexed
// releases its grant before returning, so this should already be zero; the
// brief settle loop only guards against unrelated tests' stragglers.
func waitWorkerBudgetDrain(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if WorkerBudgetInUse() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker budget still holds %d slots after cancellation", WorkerBudgetInUse())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheScopeIsolation pins the service's cache-tenancy contract: a
// campaign run under a CacheScope records all its memoization activity in
// that scope and none in another, and the scope's byte budget is its own.
func TestCacheScopeIsolation(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)
	other := NewCacheScope(0)
	ctx.Cache = other
	want, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	if err != nil {
		t.Fatal(err)
	}
	otherBefore := other.Stats()
	if otherBefore.Lookups == 0 {
		t.Fatal("first campaign did not touch its scope; test is vacuous")
	}

	ctx.Cache = NewCacheScope(1 << 20)
	got, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow)
	if err != nil {
		t.Fatal(err)
	}
	if otherAfter := other.Stats(); otherAfter != otherBefore {
		t.Errorf("scoped campaign leaked into another scope: %+v, then %+v", otherBefore, otherAfter)
	}
	st := ctx.Cache.Stats()
	if st.Lookups == 0 || st.Misses == 0 {
		t.Errorf("scope saw no activity: %+v", st)
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Errorf("scope stats inconsistent: %+v", st)
	}
	if st.SummaryByteLimit != 1<<20 {
		t.Errorf("scope byte limit = %d, want %d", st.SummaryByteLimit, 1<<20)
	}
	if st.SummaryBytes > st.SummaryByteLimit {
		t.Errorf("scope bytes %d exceed limit %d", st.SummaryBytes, st.SummaryByteLimit)
	}

	// Which cache serves a campaign must not leak into results.
	for name, wevs := range want {
		for i := range wevs {
			compareTrafficEvaluations(t, name, wevs[i], got[name][i])
		}
	}

	ctx.Cache.Drop()
	if st := ctx.Cache.Stats(); st.SummaryEntries != 0 || st.SummaryBytes != 0 {
		t.Errorf("dropped scope still holds data: %+v", st)
	}
}

// TestCacheScopeTinyBudgetEvicts forces eviction with a budget smaller than
// one campaign's baselines and checks the ledger stays within it while the
// campaign still completes correctly.
func TestCacheScopeTinyBudgetEvicts(t *testing.T) {
	t.Parallel()
	ctx, scenarios, factories := trafficGoldenSetup(t)
	scope := NewCacheScope(1) // one byte: every summary evicts on insert
	ctx.Cache = scope
	if _, err := trafficTable(context.Background(), ctx, scenarios, factories, trafficTestWindow); err != nil {
		t.Fatal(err)
	}
	st := scope.Stats()
	if st.Evictions == 0 {
		t.Errorf("one-byte budget evicted nothing: %+v", st)
	}
	if st.SummaryBytes > st.SummaryByteLimit {
		t.Errorf("scope bytes %d exceed limit %d", st.SummaryBytes, st.SummaryByteLimit)
	}
}

// TestCampaignFingerprint pins the snapshot-binding key: stable across
// calls, insensitive to the cache scope, and sensitive to every input that
// changes what phase 2 simulates — seed, scenario set, order, duration,
// scoring window, and campaign kind.
func TestCampaignFingerprint(t *testing.T) {
	t.Parallel()
	ctx, scenarios, _ := trafficGoldenSetup(t)
	base := CampaignFingerprint(ctx, scenarios, TrafficCampaign, trafficTestWindow)
	if len(base) != 16 {
		t.Fatalf("fingerprint %q is not a 16-hex digest", base)
	}
	if again := CampaignFingerprint(ctx, scenarios, TrafficCampaign, trafficTestWindow); again != base {
		t.Errorf("fingerprint not stable: %s then %s", base, again)
	}
	scoped := ctx
	scoped.Cache = NewCacheScope(0)
	if got := CampaignFingerprint(scoped, scenarios, TrafficCampaign, trafficTestWindow); got != base {
		t.Errorf("cache scope changed the fingerprint: %s != %s", got, base)
	}

	mutants := map[string]string{}
	seeded := ctx
	seeded.Seed++
	mutants["seed"] = CampaignFingerprint(seeded, scenarios, TrafficCampaign, trafficTestWindow)
	windowed := ctx
	windowed.StableWindow += time.Second
	mutants["stable window"] = CampaignFingerprint(windowed, scenarios, TrafficCampaign, trafficTestWindow)
	mutants["kind"] = CampaignFingerprint(ctx, scenarios, PairCampaign, trafficTestWindow)
	mutants["duration"] = CampaignFingerprint(ctx, scenarios, TrafficCampaign, trafficTestWindow+time.Second)
	mutants["subset"] = CampaignFingerprint(ctx, scenarios[:2], TrafficCampaign, trafficTestWindow)
	swapped := []Scenario{scenarios[1], scenarios[0], scenarios[2]}
	mutants["order"] = CampaignFingerprint(ctx, swapped, TrafficCampaign, trafficTestWindow)
	for what, got := range mutants {
		if got == base {
			t.Errorf("changing %s did not change the fingerprint", what)
		}
	}
}

// TestWorkerBudgetInUseBounded samples the exported budget reading while a
// campaign runs: it must never exceed GOMAXPROCS (math.MaxInt guard only;
// the race-mode stress test in internal/serve does the heavy sampling).
func TestWorkerBudgetInUseBounded(t *testing.T) {
	if got := WorkerBudgetInUse(); got < 0 || got > math.MaxInt32 {
		t.Fatalf("implausible worker budget reading %d", got)
	}
}
