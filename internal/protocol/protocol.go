// Package protocol implements the paper's evaluation protocol (§III-E):
//
//  1. compute each application's isolated active consumption A_{P_i} by
//     running it alone on the machine and removing the residual
//     consumption R from the acquired power;
//  2. run pairs of applications in parallel without contention, collecting
//     the models' estimated consumptions Ce^{P_i}_{S,t};
//  3. score each model with the absolute error of Equation 5 against the
//     objective shares of Equation 3 (or its §IV-B residual-aware
//     variants), over the stable part of the run.
//
// Phase 1 baselines are taken from the simulator's ground-truth power
// decomposition — the quantity the paper had to construct indirectly from
// load curves; EstimateResidual reproduces that indirect construction and
// is validated against the ground truth in tests. Each solo run streams
// into one pooled reduction (soloBaseline), never into a stored run. The
// models under evaluation never see ground truth.
package protocol

import (
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/rng"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// Context carries the fixed experimental conditions of one evaluation
// campaign.
type Context struct {
	// Machine is the simulated machine and its performance settings
	// (hyperthreading / turbo toggles select the paper's laboratory or
	// production context).
	Machine machine.Config
	// RunFor is how long each scenario executes (the paper used 30 s for
	// stress scenarios).
	RunFor time.Duration
	// StableWindow is the length of the least-extreme window scored (the
	// paper's 10 s).
	StableWindow time.Duration
	// Seed seeds scenario-level randomness (sensor noise, model seeds).
	Seed int64
	// Cache is the campaign's run memoization: an isolated, byte-budgeted
	// scope (see NewCacheScope). Nil means no memoization. The scope does
	// not enter any fingerprint or seed derivation, so results are
	// bit-identical regardless of which cache serves them, or whether one
	// does.
	Cache *CacheScope
}

// DefaultContext returns the paper's stress-evaluation settings on the
// given machine config: 30 s runs scored on the 10 s stable window,
// memoized in DefaultScope.
func DefaultContext(cfg machine.Config) Context {
	return Context{
		Machine:      cfg,
		RunFor:       30 * time.Second,
		StableWindow: 10 * time.Second,
		Cache:        DefaultScope(),
	}
}

// AppSpec identifies one application instance in the protocol: a workload
// with a thread count (the paper's "applications" are stress functions ×
// thread sizes) and optional §IV-B capping/pinning. Traffic scenarios add a
// lifetime (StartAt/StopAt) and a BaseID so that many short-lived instances
// of the same application type share a single phase 1 baseline.
type AppSpec struct {
	ID string
	// BaseID names the application type for phase 1: instances sharing a
	// BaseID share one solo baseline (measured without lifetime offsets).
	// Empty means the instance is its own type (the static-campaign case).
	BaseID   string
	Workload workload.Workload
	Threads  int
	CPUQuota float64
	Pinned   []int
	// StartAt is the instance's arrival into the scenario; StopAt its
	// scripted exit (0 = runs until the scenario or its workload ends).
	StartAt time.Duration
	StopAt  time.Duration
}

// baselineID is the key the instance's phase 1 baseline is stored under.
func (a AppSpec) baselineID() string {
	if a.BaseID != "" {
		return a.BaseID
	}
	return a.ID
}

// InstancePerCore is the F2 reference model's per-core table for
// scenarios: each instance ID maps to the isolated active power per core
// of its application type's phase 1 baseline. Instances whose type has no
// baseline are left out.
func InstancePerCore(scenarios []Scenario, baselines map[string]division.Baseline) map[string]units.Watts {
	perCore := map[string]units.Watts{}
	for _, s := range scenarios {
		for _, a := range s.Apps {
			if b, ok := baselines[a.baselineID()]; ok {
				perCore[a.ID] = b.ActivePerCore()
			}
		}
	}
	return perCore
}

// baselineSpec strips the instance down to its application type: the spec
// phase 1 actually measures, solo and without lifetime offsets. For specs
// without traffic fields it is the identity, so static campaigns measure —
// and cache — exactly what they always did.
func (a AppSpec) baselineSpec() AppSpec {
	b := a
	b.ID = a.baselineID()
	b.BaseID = ""
	b.StartAt, b.StopAt = 0, 0
	return b
}

// proc converts the spec to a simulator process.
func (a AppSpec) proc() machine.Proc {
	return machine.Proc{
		ID:       a.ID,
		Workload: a.Workload,
		Threads:  a.Threads,
		Start:    a.StartAt,
		Stop:     a.StopAt,
		CPUQuota: a.CPUQuota,
		Pinned:   a.Pinned,
	}
}

// StressApp builds an AppSpec for a named stress function. The ID encodes
// function and size, e.g. "fibonacci-3".
func StressApp(fn string, threads int) (AppSpec, error) {
	w, ok := workload.StressByName(fn)
	if !ok {
		return AppSpec{}, fmt.Errorf("protocol: unknown stress function %q", fn)
	}
	return AppSpec{ID: fmt.Sprintf("%s-%d", fn, threads), Workload: w, Threads: threads}, nil
}

// EstimateResidual reproduces the paper's indirect construction of R
// (Fig 1): run a reference stress on 1..N physical cores, fit the linear
// tail of machine power against core count, and report the intercept at
// zero cores — idle plus load residual, the paper's R. On real hardware
// this is the only way to obtain R; on the simulator it should agree with
// the ground-truth decomposition (a test asserts it does).
func EstimateResidual(ctx Context, probe workload.Workload) (units.Watts, error) {
	phys := ctx.Machine.Spec.Topology.PhysicalCores()
	if phys < 2 {
		return 0, fmt.Errorf("protocol: need ≥2 cores to fit residual")
	}
	// Mean power at each core count.
	p := make([]float64, phys+1)
	for n := 1; n <= phys; n++ {
		cfg := ctx.Machine
		cfg.Seed = rng.Derive(ctx.Seed, "residual-probe", fmt.Sprint(n))
		sum, ticks := 0.0, 0
		err := machine.Stream(cfg, []machine.Proc{{
			ID: "probe", Workload: probe, Threads: n,
		}}, 5*time.Second, func(seg *machine.Segment) error {
			for _, w := range seg.Powers {
				sum += float64(w)
			}
			ticks += seg.Ticks()
			return nil
		})
		if err != nil {
			return 0, err
		}
		p[n] = sum / float64(ticks)
	}
	// Least-squares line over n = 1..phys; the intercept is R.
	var sx, sy, sxx, sxy float64
	for n := 1; n <= phys; n++ {
		x := float64(n)
		sx += x
		sy += p[n]
		sxx += x * x
		sxy += x * p[n]
	}
	cnt := float64(phys)
	den := cnt*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("protocol: degenerate residual fit")
	}
	slope := (cnt*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / cnt
	return units.Watts(intercept), nil
}

// stableScoringWindow picks the scoring window: the least-extreme
// StableWindow of the power series (tick i at i·interval) restricted to
// ticks where the model produced estimates (ok[i]). A non-positive
// StableWindow disables the selection and scores every estimated tick (the
// ablation baseline). It returns the inclusive start and exclusive end.
// scored is caller-owned scratch, reset and refilled on every call.
func stableScoringWindow(ctx Context, power []units.Watts, interval time.Duration, ok []bool, scored *trace.Series) (time.Duration, time.Duration) {
	scored.Reset()
	for i, w := range power {
		if ok[i] {
			scored.Append(time.Duration(i)*interval, float64(w))
		}
	}
	if scored.Len() == 0 {
		return 0, 0
	}
	if ctx.StableWindow <= 0 {
		return scored.Start(), scored.End() + 1
	}
	from, to, err := scored.StableWindowBounds(ctx.StableWindow)
	if err != nil {
		return scored.Start(), scored.End() + 1
	}
	return from, to + 1
}
