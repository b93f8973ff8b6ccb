package protocol

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

func TestForEachIndexed(t *testing.T) {
	t.Parallel()
	const n = 100
	var sum int64
	err := forEachIndexed(n, func(i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", sum, n*(n-1)/2)
	}
}

func TestForEachIndexedError(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	err := forEachIndexed(50, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if err := forEachIndexed(0, func(int) error { return sentinel }); err != nil {
		t.Errorf("empty iteration err = %v", err)
	}
}

// TestForEachIndexedEarlyDrain pins the stop-flag semantics: once a call
// fails, the pool drains instead of dispatching the full index range, and
// the error returned is still the failing error with the lowest index even
// though higher-indexed failures may be recorded first.
func TestForEachIndexedEarlyDrain(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 400
	const firstBad = 5
	var calls atomic.Int64
	err := forEachIndexed(n, func(i int) error {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		if i >= firstBad {
			return fmt.Errorf("bad index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != fmt.Sprintf("bad index %d", firstBad) {
		t.Errorf("err = %v, want bad index %d (lowest failing index)", err, firstBad)
	}
	// Every index at or above firstBad fails, so the stop flag is set
	// almost immediately; a full dispatch of all n indices means the drain
	// never engaged. Allow generous scheduling slack.
	if c := calls.Load(); c >= n/2 {
		t.Errorf("dispatched %d of %d calls after an early failure; early drain not engaged", c, n)
	}
}

// TestForEachNestedBudget pins the shared worker budget: a ForEach whose
// callback itself fans out through forEachIndexed (the fleet-over-campaign
// shape) must keep the total number of concurrently executing callbacks
// within GOMAXPROCS instead of multiplying the two levels.
func TestForEachNestedBudget(t *testing.T) {
	const budget = 4
	prev := runtime.GOMAXPROCS(budget)
	defer runtime.GOMAXPROCS(prev)

	var busy, highWater atomic.Int64
	enter := func() {
		n := busy.Add(1)
		for {
			hw := highWater.Load()
			if n <= hw || highWater.CompareAndSwap(hw, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // widen the overlap window
	}
	err := ForEach(8, func(int) error {
		return forEachIndexed(8, func(int) error {
			enter()
			defer busy.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := highWater.Load(); hw > budget {
		t.Fatalf("nested fan-out ran %d callbacks concurrently, budget %d", hw, budget)
	}
	if left := activeWorkers.Load(); left != 0 {
		t.Fatalf("worker budget leaked: %d slots still held", left)
	}
}

func TestParallelCampaignMatchesSequential(t *testing.T) {
	t.Parallel()
	// No cache scope: the parallel campaign recomputes every scenario
	// rather than replaying the sequential pass.
	ctx := labSmall()
	ctx.Cache = nil
	scenarios, err := StressPairs([]string{"fibonacci", "float64", "matrixprod", "queens"}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The sequential reference: phase 1 one application at a time, then
	// one one-scenario call per scenario in order; a one-application or
	// one-scenario call runs inline, with no worker pool involved.
	baselines := map[string]division.Baseline{}
	for _, app := range AppsOf(scenarios) {
		if baselines[app.ID], err = measureOne(ctx, app); err != nil {
			t.Fatal(err)
		}
	}
	seq := make([]Evaluation, len(scenarios))
	for i, s := range scenarios {
		if seq[i], err = evaluatePair(ctx, s, models.NewScaphandre(), baselines, ObjectiveActive); err != nil {
			t.Fatal(err)
		}
	}
	par, err := pairRows(ctx, scenarios, models.NewScaphandre())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Scenario.Label() != par[i].Scenario.Label() {
			t.Fatalf("scenario %d order differs: %q vs %q", i, seq[i].Scenario.Label(), par[i].Scenario.Label())
		}
		if seq[i].AE != par[i].AE {
			t.Errorf("scenario %q: AE %v vs %v", seq[i].Scenario.Label(), seq[i].AE, par[i].AE)
		}
	}
}

func TestParallelBaselinesMatchSequential(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	apps := []AppSpec{
		mustStressApp(t, "fibonacci", 1),
		mustStressApp(t, "matrixprod", 2),
		mustStressApp(t, "int64", 3),
	}
	par, err := Measure(context.Background(), ctx, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(apps) {
		t.Fatalf("%d baselines for %d applications", len(par), len(apps))
	}
	for _, app := range apps {
		b, err := measureOne(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		if p := par[app.ID]; b != p {
			t.Errorf("%s: %+v vs %+v", app.ID, b, p)
		}
	}
}

func TestParallelCampaignPropagatesErrors(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	// A scenario that oversubscribes the machine fails inside the pool.
	big := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 4),
		mustStressApp(t, "matrixprod", 4),
	}}
	small := Scenario{Apps: []AppSpec{
		mustStressApp(t, "fibonacci", 1),
		mustStressApp(t, "matrixprod", 1),
	}}
	_, err := pairRows(ctx, []Scenario{small, big}, models.NewScaphandre())
	if err == nil {
		t.Error("oversubscribed scenario did not fail")
	}
}
