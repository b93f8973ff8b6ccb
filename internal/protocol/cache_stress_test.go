package protocol

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// TestMemoizationStressUnderEvictions hammers both tiers of one cache scope
// from concurrent campaign workers while its baseline tier's byte cap is
// squeezed small enough to evict continuously, with a poller asserting the
// stats invariants on every snapshot:
//
//	Hits + Misses == Lookups
//	SummaryBytes  <= SummaryByteLimit
//
// Run it under -race; it exists to catch ledger updates that escape the
// cache mutex (a torn counter or a byte refund outside the lock shows up
// here as an invariant violation or a race report).
func TestMemoizationStressUnderEvictions(t *testing.T) {
	const stressByteLimit = 1200
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// Roughly two baseline records (each charged its ~500-byte key, its ID
	// and 32 bytes): every phase 1 insert evicts an older one, including
	// entries still being computed by another worker.
	scope := NewCacheScope(stressByteLimit)

	ctx := labSmall()
	ctx.Cache = scope
	ctx.RunFor = 4 * time.Second
	ctx.StableWindow = 2 * time.Second
	scenarios, err := StressPairs([]string{"fibonacci", "matrixprod", "int64", "float64"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			st := scope.Stats()
			if st.Hits+st.Misses != st.Lookups {
				t.Errorf("stats torn: %d hits + %d misses != %d lookups", st.Hits, st.Misses, st.Lookups)
				return
			}
			if st.SummaryBytes > st.SummaryByteLimit {
				t.Errorf("baseline tier over cap: %d > %d bytes", st.SummaryBytes, st.SummaryByteLimit)
				return
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	// Two campaign flavours race against each other over the same
	// scenarios, and both re-read the baseline tier for baselines while
	// evictions churn it.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pairRows(ctx, scenarios, models.NewScaphandre()); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			factories := func(map[string]division.Baseline) []models.Factory {
				return []models.Factory{models.NewScaphandre(), models.NewKepler()}
			}
			if _, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(done)
	pollWG.Wait()

	st := scope.Stats()
	if st.Lookups == 0 {
		t.Error("stress run recorded no cache lookups")
	}
	if st.Evictions == 0 {
		t.Errorf("byte cap of %d never evicted: %+v", stressByteLimit, st)
	}
	if st.SummaryBytes > st.SummaryByteLimit {
		t.Errorf("final baseline tier over cap: %d > %d", st.SummaryBytes, st.SummaryByteLimit)
	}
}
