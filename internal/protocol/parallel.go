package protocol

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the worker count for campaign evaluation: scenarios are
// independent simulations, so they scale with cores.
func parallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// activeWorkers is the package-wide count of goroutines forEachIndexed
// has spawned and not yet retired, shared by every concurrent call in the
// process. It is the guard against nested fan-out oversubscription: a
// fleet-level ForEach over nodes whose callback runs a per-node campaign
// (itself built on forEachIndexed) would otherwise spawn
// nodes × GOMAXPROCS goroutines. With the shared budget, inner calls see
// the slots the outer level already holds and fall back to running
// serially on their caller's goroutine — which is an outer worker and so
// already accounted for. Unlike the caches, which travel with each
// campaign's Context, the budget stays process-wide because it maps onto
// CPUs: every campaign in the process draws on the same GOMAXPROCS cores,
// so per-campaign budgets would oversubscribe them.
var activeWorkers atomic.Int64

// acquireWorkers claims up to want slots from the shared budget and
// returns how many it got (possibly zero). It never blocks: under
// contention the caller degrades to serial execution instead of waiting,
// so nesting cannot deadlock.
func acquireWorkers(want int) int {
	for {
		cur := activeWorkers.Load()
		free := int64(parallelism()) - cur
		if free <= 0 {
			return 0
		}
		grant := int64(want)
		if grant > free {
			grant = free
		}
		if activeWorkers.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

// releaseWorkers returns slots to the shared budget.
func releaseWorkers(n int) { activeWorkers.Add(-int64(n)) }

// WorkerBudgetInUse reports how many slots of the shared worker budget are
// currently held. It never exceeds GOMAXPROCS, and returns to zero once
// every fan-out has drained — the invariant the service stress tests assert
// while jobs are admitted, cancelled and killed concurrently.
func WorkerBudgetInUse() int { return int(activeWorkers.Load()) }

// ForEach runs fn(i) for i in [0, n) across the shared worker pool with
// the same determinism and early-stop contract as the internal campaign
// runner. It is the entry point fleet-level drivers use so that their
// node-level parallelism and the per-node campaign parallelism draw from
// one budget and total workers stay within GOMAXPROCS.
func ForEach(n int, fn func(i int) error) error {
	return forEachIndexed(n, fn)
}

// forEachIndexed runs fn(i) for i in [0, n) across the worker pool and
// returns the first error (by index order, so results are deterministic
// regardless of scheduling). fn must only write state owned by its index.
//
// A failure sets a stop flag that drains the remaining indices: workers
// finish the call they are in and exit instead of dispatching more work.
// The first-error-by-index guarantee survives the early stop — indices are
// handed out in increasing order, so when any call fails, every lower
// index has already been dispatched, and its (possibly failing) result is
// recorded before its worker checks the flag.
//
// Worker goroutines are drawn from the process-wide activeWorkers budget;
// when the budget is exhausted (typically because this call is nested
// inside another forEachIndexed callback) the loop runs serially on the
// caller's goroutine, whose slot the outer level already holds.
func forEachIndexed(n int, fn func(i int) error) error {
	workers := parallelism()
	if workers > n {
		workers = n
	}
	if workers > 1 {
		granted := acquireWorkers(workers)
		if granted <= 1 {
			// One extra goroutine buys nothing over the caller's own;
			// return it and run inline.
			releaseWorkers(granted)
			workers = 1
		} else {
			workers = granted
			defer releaseWorkers(granted)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var stop atomic.Bool
	// Index handout is a single fetch-and-add: a mutex here serializes every
	// worker through one cache line's lock word and convoys under short
	// tasks, which is measurable at GOMAXPROCS > 1 on campaigns of cheap
	// scenarios. The counter keeps the increasing-order handout the
	// first-error guarantee relies on.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				obsWorkersBusy.Add(1)
				err := fn(i)
				errs[i] = err
				obsWorkersBusy.Add(-1)
				if err != nil {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
