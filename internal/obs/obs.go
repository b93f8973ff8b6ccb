// Package obs is the repository's stdlib-only metrics subsystem: atomic
// counters, gauges and fixed-bucket histograms behind a process-global
// registry, exposed in Prometheus text format and JSON (expose.go).
//
// The package exists for the two production-shaped paths of this codebase —
// the parallel campaign engine and the live meter — whose health (cache hit
// rates, dropped/degraded ticks, attribution coverage) was previously only
// visible in test logs. Production divisioners (Scaphandre's Prometheus
// exporter, Kepler's metrics pipeline) treat exposition as a first-class
// subsystem; this package gives the reproduction the same property without
// importing one.
//
// Design constraints, in order:
//
//   - Disabled is free. The registry starts disabled and every write op
//     (Inc/Add/Set/Observe) is a single atomic load followed by a return in
//     that state — no allocation, no branch misprediction-prone work — so
//     instrumented hot loops (the simulator tick path) keep their benchmark
//     numbers. Reads (Value, snapshots) work regardless of the enabled
//     state.
//   - Zero-allocation writes. Enabled-path writes are atomic adds / CAS
//     loops on preallocated state; nothing escapes to the heap.
//   - Safe under the worker pool. All state is atomics; snapshots take the
//     registry mutex only to walk the metric list, then read each value
//     atomically. A snapshot taken while writers are active is a consistent
//     "point in time per metric", not a global cut — fine for monitoring,
//     and exact once the writers quiesce (which is when tests read it).
//
// Metrics are registered once at package init via NewCounter / NewGauge /
// NewHistogram and live for the process lifetime; duplicate names panic.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// enabled gates every write operation; see the package comment.
var enabled atomic.Bool

// Enable turns instrumentation writes on or off process-wide. The registry
// starts disabled; CLIs enable it behind -metrics / -metrics-addr and tests
// enable it around assertions.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation writes are active. Call sites
// with non-trivial setup cost (timing a region) should gate on it.
func Enabled() bool { return enabled.Load() }

// Metric is the read side shared by all metric kinds.
type Metric interface {
	// Name returns the metric's registered (Prometheus-style) name.
	Name() string
	// Help returns the one-line description.
	Help() string
	// Snapshot returns the metric's current value(s), read atomically.
	Snapshot() Snapshot
	// reset zeroes the metric (test hook, via Registry.Reset).
	reset()
}

// Snapshot is one metric's point-in-time value, shared by the exposition
// formats.
type Snapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value is the counter or gauge value (counters as exact integers).
	Value float64 `json:"value"`
	// Count and Sum are histogram aggregates.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	// Buckets are the histogram's cumulative bucket counts; the final
	// bucket's UpperBound is +Inf and its Count equals Count.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket (Prometheus "le" semantics).
// Its JSON form renders the bound as a string so the +Inf bucket survives
// encoding (JSON has no infinity literal).
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// MarshalJSON implements json.Marshaler; see the Bucket comment.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{LE: formatBound(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw bucketJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	bound, err := parseBound(raw.LE)
	if err != nil {
		return err
	}
	b.UpperBound, b.Count = bound, raw.Count
	return nil
}

type bucketJSON struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func parseBound(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Registry holds a set of named metrics. Most code uses the process-global
// Default registry through the package-level constructors.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]Metric
	// names keeps registration-independent (sorted) exposition order.
	names []string
}

// NewRegistry returns an empty registry. Only tests need private ones; the
// instrumented packages all register into Default.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]Metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// register adds m, panicking on duplicates: metric registration happens at
// package init, where a clash is a programming error.
func (r *Registry) register(m Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.Name()
	if name == "" {
		panic("obs: metric with empty name")
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.metrics[name] = m
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
}

// Snapshots returns every metric's snapshot in name order.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.metrics[name].Snapshot())
	}
	return out
}

// Get returns the metric registered under name, or nil.
func (r *Registry) Get(name string) Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// Reset zeroes every registered metric. It is a test hook: assertions that
// compare counters against an independent source (a cache scope's Stats, a
// meter's Health) reset first so earlier tests in the same binary don't
// leak into the comparison.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		m.reset()
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	defaultRegistry.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. It is a no-op while the registry is disabled.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name implements Metric.
func (c *Counter) Name() string { return c.name }

// Help implements Metric.
func (c *Counter) Help() string { return c.help }

// Snapshot implements Metric.
func (c *Counter) Snapshot() Snapshot {
	return Snapshot{Name: c.name, Help: c.help, Kind: "counter", Value: float64(c.v.Load())}
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	defaultRegistry.register(g)
	return g
}

// Set stores v. It is a no-op while the registry is disabled.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative) with a CAS loop, so concurrent
// workers can track occupancy without a lock. No-op while disabled.
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name implements Metric.
func (g *Gauge) Name() string { return g.name }

// Help implements Metric.
func (g *Gauge) Help() string { return g.help }

// Snapshot implements Metric.
func (g *Gauge) Snapshot() Snapshot {
	return Snapshot{Name: g.name, Help: g.help, Kind: "gauge", Value: g.Value()}
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram counts observations into fixed buckets (Prometheus cumulative
// "le" semantics at exposition; storage is per-bucket so Observe touches
// one slot).
type Histogram struct {
	name, help string
	// bounds are the ascending finite upper bounds; counts has one extra
	// trailing slot for the implicit +Inf bucket.
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram registers a histogram with the given ascending upper bounds
// in the Default registry. A +Inf bucket is implicit.
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	defaultRegistry.register(h)
	return h
}

// Observe records v. It is a no-op while the registry is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// First bucket whose bound is >= v; falls through to +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Name implements Metric.
func (h *Histogram) Name() string { return h.name }

// Help implements Metric.
func (h *Histogram) Help() string { return h.help }

// Snapshot implements Metric.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Name:    h.name,
		Help:    h.help,
		Kind:    "histogram",
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: bound, Count: cum}
	}
	return s
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}
