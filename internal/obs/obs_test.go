package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs fn with instrumentation on, restoring the disabled
// default afterwards so tests don't leak global state.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	Enable(true)
	defer Enable(false)
	fn()
}

// scratchMetrics removes the named test metrics from the Default registry
// when t ends: registration panics on a duplicate name, and without the
// removal a second run of the same test (-count=2) would re-register them.
func scratchMetrics(t *testing.T, names ...string) {
	t.Cleanup(func() {
		r := Default()
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, n := range names {
			delete(r.metrics, n)
			r.names = slices.DeleteFunc(r.names, func(m string) bool { return m == n })
		}
	})
}

func TestCounterDisabledIsNoOp(t *testing.T) {
	scratchMetrics(t, "test_disabled_total")
	c := NewCounter("test_disabled_total", "disabled counter")
	Enable(false)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved: %d", got)
	}
	withEnabled(t, func() {
		c.Inc()
		c.Add(41)
	})
	if got := c.Value(); got != 42 {
		t.Fatalf("enabled counter = %d, want 42", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	scratchMetrics(t, "test_gauge")
	g := NewGauge("test_gauge", "gauge")
	withEnabled(t, func() {
		g.Set(2.5)
		g.Add(1.5)
		g.Add(-3)
	})
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	scratchMetrics(t, "test_hist_seconds")
	h := NewHistogram("test_hist_seconds", "latencies", 0.1, 1, 10)
	withEnabled(t, func() {
		for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
			h.Observe(v)
		}
	})
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; math.Abs(s.Sum-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// le=0.1 holds 0.05 and the boundary value 0.1; le=1 adds 0.5; le=10
	// adds 2; +Inf adds 100.
	wantCum := []uint64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", s.Buckets[len(s.Buckets)-1].UpperBound)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	scratchMetrics(t, "test_dup_total")
	NewCounter("test_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_dup_total", "second")
}

func TestResetZeroesEverything(t *testing.T) {
	scratchMetrics(t, "test_reset_total", "test_reset_gauge", "test_reset_seconds")
	c := NewCounter("test_reset_total", "c")
	g := NewGauge("test_reset_gauge", "g")
	h := NewHistogram("test_reset_seconds", "h", 1)
	withEnabled(t, func() {
		c.Inc()
		g.Set(7)
		h.Observe(0.5)
	})
	Default().Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset left state: c=%d g=%v h=%d/%v", c.Value(), g.Value(), h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Buckets[0].Count != 0 {
		t.Fatalf("reset left bucket counts: %+v", s.Buckets)
	}
}

// TestConcurrentWritersAndSnapshots is the -race workhorse: hammer every
// metric kind from many goroutines while snapshotting, then check the
// totals once the writers quiesce.
func TestConcurrentWritersAndSnapshots(t *testing.T) {
	scratchMetrics(t, "test_conc_total", "test_conc_gauge", "test_conc_seconds")
	c := NewCounter("test_conc_total", "c")
	g := NewGauge("test_conc_gauge", "g")
	h := NewHistogram("test_conc_seconds", "h", 0.5, 1)
	const workers = 8
	const perWorker = 2000
	withEnabled(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Inc()
					g.Add(1)
					g.Add(-1)
					h.Observe(0.75)
				}
			}()
		}
		// Concurrent readers of all exposition paths.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Default().Snapshots()
				var sb strings.Builder
				_ = Default().WritePrometheus(&sb)
			}
		}()
		wg.Wait()
	})
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0 after balanced adds", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if want := 0.75 * workers * perWorker; math.Abs(h.Sum()-want) > 1e-6*want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	scratchMetrics(t, "test_expo_total", "test_expo_seconds")
	c := NewCounter("test_expo_total", "an exposed counter")
	h := NewHistogram("test_expo_seconds", "an exposed histogram", 1)
	withEnabled(t, func() {
		c.Add(3)
		h.Observe(0.5)
		h.Observe(2)
	})
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_expo_total an exposed counter",
		"# TYPE test_expo_total counter",
		"test_expo_total 3",
		"# TYPE test_expo_seconds histogram",
		`test_expo_seconds_bucket{le="1"} 1`,
		`test_expo_seconds_bucket{le="+Inf"} 2`,
		"test_expo_seconds_sum 2.5",
		"test_expo_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONAndHandler(t *testing.T) {
	scratchMetrics(t, "test_http_total")
	c := NewCounter("test_http_total", "served counter")
	withEnabled(t, func() { c.Add(9) })

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "test_http_total 9") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/metrics.json", nil)
	Handler().ServeHTTP(rec, req)
	var snaps []Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("/metrics.json did not parse: %v", err)
	}
	found := false
	for _, s := range snaps {
		if s.Name == "test_http_total" {
			found = true
			if s.Value != 9 || s.Kind != "counter" {
				t.Fatalf("bad JSON snapshot: %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("test_http_total missing from JSON: %v", snaps)
	}
}

func TestSummarySkipsZeroMetrics(t *testing.T) {
	scratchMetrics(t, "test_summary_zero_total", "test_summary_live_total")
	NewCounter("test_summary_zero_total", "never incremented")
	c := NewCounter("test_summary_live_total", "incremented")
	withEnabled(t, func() { c.Inc() })
	sum := Default().Summary()
	if strings.Contains(sum, "test_summary_zero_total") {
		t.Errorf("summary includes zero metric:\n%s", sum)
	}
	if !strings.Contains(sum, "test_summary_live_total") {
		t.Errorf("summary missing live metric:\n%s", sum)
	}
}

// BenchmarkDisabledOps documents the disabled-registry guarantee: writes in
// the disabled state are branch-and-return with zero allocations.
func BenchmarkDisabledOps(b *testing.B) {
	c := NewCounter("bench_disabled_total", "")
	g := NewGauge("bench_disabled_gauge", "")
	h := NewHistogram("bench_disabled_seconds", "", 1, 10)
	Enable(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(0.5)
	}
}

// BenchmarkEnabledCounter documents the enabled fast path: one atomic add,
// zero allocations.
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewCounter("bench_enabled_total", "")
	Enable(true)
	defer Enable(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
