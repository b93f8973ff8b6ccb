// Package traffic generates production-shaped scenario schedules for the
// evaluation protocol: instead of the paper's static solo/pair rosters,
// instances of the stress/phoronix application types arrive by a stochastic
// arrival process, run for exponentially distributed lifetimes and exit
// mid-run — the "production context" of continuously churning processes
// that the paper's framing targets but its evaluation never reaches.
//
// Three arrival shapes are built in:
//
//   - Poisson: memoryless arrivals at a constant mean rate — the classic
//     open-system baseline;
//   - Bursty: a two-state Markov-modulated Poisson process alternating
//     calm and burst periods (exponential sojourns), holding the configured
//     mean rate overall;
//   - Diurnal: a Poisson process thinned against a sinusoidal multi-period
//     rate curve, the day/night load swing of a production fleet.
//
// Determinism contract: Generate is a pure function of its Config. Every
// random draw comes from a per-scenario source seeded by rng.Derive over
// (Seed, scenario index), draws happen in a fixed order (baseload, then
// arrival candidates in time order), and rejected arrivals still consume
// their draws — so schedules are bit-identical across runs, platforms and
// worker scheduling, and any schedule can be regenerated from (Seed, index)
// alone. Capacity is enforced at generation time: alive threads never
// exceed MaxCPUs (concurrency only increases at arrival instants, so the
// per-arrival check yields an all-times invariant), keeping every generated
// scenario contention-free as the protocol requires.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"powerdiv/internal/protocol"
	"powerdiv/internal/rng"
	"powerdiv/internal/workload"
)

// Kind selects the arrival process shape.
type Kind int

const (
	// Poisson is a constant-rate memoryless arrival process.
	Poisson Kind = iota
	// Bursty is a two-state Markov-modulated Poisson process.
	Bursty
	// Diurnal modulates a Poisson process by a sinusoidal rate curve.
	Diurnal
	// Mixed cycles Poisson, Bursty and Diurnal across scenarios.
	Mixed
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a kind name.
func KindByName(name string) (Kind, error) {
	switch name {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	case "diurnal":
		return Diurnal, nil
	case "mixed":
		return Mixed, nil
	default:
		return 0, fmt.Errorf("traffic: unknown arrival kind %q (want poisson, bursty, diurnal or mixed)", name)
	}
}

// Config parameterizes a generated traffic campaign.
type Config struct {
	// Kind is the arrival shape (Mixed cycles all three per scenario).
	Kind Kind
	// Seed makes the whole campaign deterministic.
	Seed int64
	// Scenarios is how many scenarios to generate.
	Scenarios int
	// Window is each scenario's duration.
	Window time.Duration
	// ArrivalsPerMinute is the mean arrival rate over the window.
	ArrivalsPerMinute float64
	// MeanLifetime is the mean of the exponential instance lifetime.
	MeanLifetime time.Duration
	// Kernels is the cohort mix instances draw from — stress function or
	// phoronix application names. Defaults to the 12 stress functions.
	Kernels []string
	// MaxThreads caps each arriving instance's thread count (uniform in
	// 1..MaxThreads).
	MaxThreads int
	// MaxCPUs is the machine capacity generation respects: alive threads
	// never exceed it, so scenarios stay contention-free.
	MaxCPUs int
	// Baseload is how many always-on single-thread instances anchor each
	// scenario (they guarantee busy ticks throughout). Zero means "unset"
	// and defaults to 2; set NoBaseload for an explicitly empty baseload —
	// a scenario driven by arrivals alone, as on a fleet node that only
	// sees churn.
	Baseload int
}

// NoBaseload is the explicit Baseload sentinel for "no always-on
// instances". The zero value of Config keeps its historical meaning
// (defaulted baseload of 2), so zero-baseload schedules need this marker
// to be distinguishable from an unset field.
const NoBaseload = -1

// Defaults chosen so a 30 s window sees a steady trickle of arrivals with
// visible churn on a small machine.
const (
	defaultWindow            = 30 * time.Second
	defaultArrivalsPerMinute = 12.0
	defaultMaxThreads        = 2
	defaultMaxCPUs           = 4
	defaultBaseload          = 2
	// minLifetime keeps instances alive for at least a few simulator ticks
	// so that every arrival is observable.
	minLifetime = 500 * time.Millisecond
)

// The shapes of the Bursty and Diurnal arrival processes.
const (
	// burstFactor multiplies the calm arrival rate during bursts.
	burstFactor = 4.0
	// burstFraction is the long-run fraction of time spent bursting.
	burstFraction = 0.2
	// diurnalPeriods is how many rate peaks the window spans.
	diurnalPeriods = 2
	// diurnalDepth is the sinusoidal modulation depth, in [0, 1).
	diurnalDepth = 0.8
)

// WithDefaults fills unset fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.Scenarios <= 0 {
		c.Scenarios = 1
	}
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.ArrivalsPerMinute <= 0 {
		c.ArrivalsPerMinute = defaultArrivalsPerMinute
	}
	if c.MeanLifetime <= 0 {
		c.MeanLifetime = c.Window / 3
	}
	if len(c.Kernels) == 0 {
		c.Kernels = workload.StressNames()
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = defaultMaxThreads
	}
	if c.MaxCPUs <= 0 {
		c.MaxCPUs = defaultMaxCPUs
	}
	switch {
	case c.Baseload == 0:
		// Zero is "unset", not "no baseload": the historical default.
		c.Baseload = defaultBaseload
	case c.Baseload < 0:
		// NoBaseload (or any negative sentinel): explicitly empty.
		c.Baseload = 0
	}
	return c
}

// Validate checks a defaulted config for internal consistency.
func (c Config) Validate() error {
	if c.Baseload != 0 && c.Baseload < 2 {
		return fmt.Errorf("traffic: baseload %d below the protocol's 2-instance floor (use NoBaseload for none)", c.Baseload)
	}
	if c.Baseload > c.MaxCPUs {
		return fmt.Errorf("traffic: baseload %d exceeds capacity %d", c.Baseload, c.MaxCPUs)
	}
	if c.MaxThreads > c.MaxCPUs {
		return fmt.Errorf("traffic: max threads %d exceeds capacity %d", c.MaxThreads, c.MaxCPUs)
	}
	for _, k := range c.Kernels {
		if !workload.Known(k) {
			return fmt.Errorf("traffic: unknown kernel %q", k)
		}
	}
	return nil
}

// KernelByName resolves a cohort kernel name: the 12 stress functions
// first, then the phoronix applications.
func KernelByName(name string) (workload.Workload, bool) {
	if w, ok := workload.StressByName(name); ok {
		return w, true
	}
	return workload.PhoronixByName(name)
}

// Generate produces the campaign's timed scenarios, deterministically per
// config. Instance IDs are "<kernel>-<threads>.<seq>" with the shared
// BaseID "<kernel>-<threads>", so phase 1 measures one baseline per
// distinct application type regardless of how many instances churn
// through the campaign. Each kernel is resolved once per call: the
// instances of one kernel share its Workload, Cost map included.
//
// Every scenario's instances are built in pooled scratch, then copied into
// one exact-size slab per call; each scenario's Apps is its window of the
// slab, capacity clipped, so appending to one scenario cannot reach the
// next.
func Generate(cfg Config) ([]protocol.Scenario, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := genScratches.Get().(*genScratch)
	defer sc.release()
	for _, k := range cfg.Kernels {
		w, _ := KernelByName(k) // Validate checked every name
		sc.kernels = append(sc.kernels, w)
	}
	out := make([]protocol.Scenario, cfg.Scenarios)
	for i := range out {
		sc.generateScenario(cfg, i)
		sc.ends = append(sc.ends, len(sc.apps))
	}
	slab := make([]protocol.AppSpec, len(sc.apps))
	copy(slab, sc.apps)
	lo := 0
	for i, hi := range sc.ends {
		out[i].Apps = slab[lo:hi:hi]
		lo = hi
	}
	return out, nil
}

// genScratch is Generate's pooled working memory: the workloads of
// cfg.Kernels, index for index, the instances of every scenario generated
// so far, back to back, each scenario's end offset in them, the arrival
// candidates of the scenario being built, and the one generator every
// scenario re-seeds in place (re-seeding gives exactly rng.New's stream
// for the scenario's seed without allocating a fresh 607-word register
// each time).
type genScratch struct {
	kernels  []workload.Workload
	apps     []protocol.AppSpec
	ends     []int
	arrivals []time.Duration
	gen      *rand.Rand
}

var genScratches = sync.Pool{New: func() any { return &genScratch{gen: rng.New(0)} }}

// release empties the scratch — the pool pins no instance's ID or
// workload — and hands it back.
func (sc *genScratch) release() {
	clear(sc.kernels)
	clear(sc.apps)
	sc.kernels, sc.apps, sc.ends = sc.kernels[:0], sc.apps[:0], sc.ends[:0]
	genScratches.Put(sc)
}

// ScenarioKind reports which arrival shape scenario idx uses under the
// config (Mixed cycles the three concrete shapes).
func (c Config) ScenarioKind(idx int) Kind {
	if c.Kind != Mixed {
		return c.Kind
	}
	return [...]Kind{Poisson, Bursty, Diurnal}[idx%3]
}

// generateScenario appends scenario idx's instances to sc.apps. Draw
// order is fixed — baseload instances first, then arrival candidates in
// time order, each consuming its kernel/threads/lifetime draws even when
// rejected for capacity — so the schedule is a pure function of (cfg,
// idx). The generator is re-seeded first, so whatever it drew before does
// not matter.
func (sc *genScratch) generateScenario(cfg Config, idx int) {
	gen, kernels := sc.gen, sc.kernels
	gen.Seed(rng.Derive(cfg.Seed, "scenario", strconv.Itoa(idx)))
	kind := cfg.ScenarioKind(idx)
	first := len(sc.apps)
	add := func(w workload.Workload, threads int, start, stop time.Duration) {
		sc.apps = append(sc.apps, newInstance(w, threads, len(sc.apps)-first, start, stop))
	}

	// Baseload: always-on single-thread anchors. Generated first so every
	// arrival's capacity check already accounts for them.
	for b := 0; b < cfg.Baseload; b++ {
		add(kernels[gen.Intn(len(kernels))], 1, 0, 0)
	}

	aliveThreads := func(t time.Duration) int {
		n := 0
		for _, a := range sc.apps[first:] {
			if a.StartAt <= t && (a.StopAt == 0 || a.StopAt > t) {
				n += a.Threads
			}
		}
		return n
	}

	sc.arrivals = arrivalTimes(cfg, kind, gen, sc.arrivals[:0])
	for _, at := range sc.arrivals {
		kernel := kernels[gen.Intn(len(kernels))]
		threads := 1 + gen.Intn(cfg.MaxThreads)
		life := time.Duration(gen.ExpFloat64() * float64(cfg.MeanLifetime))
		if life < minLifetime {
			life = minLifetime
		}
		stop := at + life
		if stop >= cfg.Window {
			stop = 0 // runs until the scenario ends
		}
		if aliveThreads(at)+threads > cfg.MaxCPUs {
			continue // no capacity at this instant: the arrival is dropped
		}
		add(kernel, threads, at, stop)
	}
}

// newInstance builds instance seq of kernel w's application type with the
// given thread count: ID "<kernel>-<threads>.<seq>" (seq zero-padded to
// three digits), BaseID "<kernel>-<threads>" — the ID's prefix, so both
// share one allocation.
func newInstance(w workload.Workload, threads, seq int, start, stop time.Duration) protocol.AppSpec {
	var buf [48]byte
	id := strconv.AppendInt(append(append(buf[:0], w.Name...), '-'), int64(threads), 10)
	base := len(id)
	id = append(id, '.')
	if seq < 100 {
		id = append(id, '0')
		if seq < 10 {
			id = append(id, '0')
		}
	}
	full := string(strconv.AppendInt(id, int64(seq), 10))
	return protocol.AppSpec{
		ID:       full,
		BaseID:   full[:base],
		Workload: w,
		Threads:  threads,
		StartAt:  start,
		StopAt:   stop,
	}
}

// arrivalTimes appends the scenario's candidate arrival instants in [0,
// Window), in increasing order, to out.
func arrivalTimes(cfg Config, kind Kind, rng *rand.Rand, out []time.Duration) []time.Duration {
	base := cfg.ArrivalsPerMinute / 60 // per second
	window := cfg.Window.Seconds()
	appendAt := func(t float64) {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	switch kind {
	case Poisson:
		for t := expStep(rng, base); t < window; t += expStep(rng, base) {
			appendAt(t)
		}
	case Diurnal:
		// Thinning: candidates at the peak rate, each kept with probability
		// rate(t)/peak. rate(t) sweeps diurnalPeriods full sine periods
		// across the window around the base rate.
		peak := base * (1 + diurnalDepth)
		for t := expStep(rng, peak); t < window; t += expStep(rng, peak) {
			rate := base * (1 + diurnalDepth*math.Sin(2*math.Pi*diurnalPeriods*t/window))
			if rng.Float64()*peak <= rate {
				appendAt(t)
			}
		}
	case Bursty:
		// Two-state MMPP: exponential sojourns in calm/burst states, the
		// burst rate burstFactor times the calm rate, rates chosen so the
		// long-run mean matches the configured base rate. Crossing a state
		// boundary redraws the inter-arrival gap — valid because the
		// exponential is memoryless.
		calmRate := base / (1 - burstFraction + burstFraction*burstFactor)
		burstRate := calmRate * burstFactor
		cycle := window / 4 // mean calm+burst cycle length
		meanBurst := burstFraction * cycle
		meanCalm := (1 - burstFraction) * cycle
		burst := false
		t := 0.0
		stateEnd := expStep(rng, 1/meanCalm)
		for t < window {
			rate := calmRate
			if burst {
				rate = burstRate
			}
			next := t + expStep(rng, rate)
			if next >= stateEnd {
				t = stateEnd
				burst = !burst
				mean := meanCalm
				if burst {
					mean = meanBurst
				}
				stateEnd = t + expStep(rng, 1/mean)
				continue
			}
			t = next
			if t < window {
				appendAt(t)
			}
		}
	}
	return out
}

// expStep draws an exponential inter-arrival gap at the given rate.
func expStep(rng *rand.Rand, rate float64) float64 {
	return rng.ExpFloat64() / rate
}
