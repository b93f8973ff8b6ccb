package protocol

import (
	"context"
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/rng"
	"powerdiv/internal/units"
)

// This file is the protocol's public surface, one call per half of
// §III-E: Measure is phase 1 (each application alone), Evaluate is phases
// 2–3 (the scenarios in parallel, scored with Eq 5). Every campaign kind,
// whole-campaign or one-scenario, runs through the same campaignPlan.

// Campaign is one phase 2–3 run: a scenario list of one kind, the models
// under evaluation and what they are scored against.
type Campaign struct {
	// Kind selects how scenarios are seeded and scored: PairCampaign scores
	// each scenario's stable window against its objectives;
	// TrafficCampaign and TimelineCampaign score every busy tick against
	// the instances present (see CampaignKind).
	Kind      CampaignKind
	Scenarios []Scenario
	// Factories builds the models under evaluation from the phase 1
	// baselines (F2 needs them); Evaluate calls it once.
	Factories func(baselines map[string]division.Baseline) []models.Factory
	// Baselines are phase 1's results, keyed by application type. Nil means
	// Evaluate measures them over BaselineAppsOf(Scenarios).
	Baselines map[string]division.Baseline
	// Objectives are the truths a pair scenario is scored against, all
	// from one simulator pass; empty means ObjectiveActive. R0 is used only
	// by ObjectiveNominalResidual.
	Objectives []Objective
	R0         units.Watts
	// Window is the traffic or timeline horizon; pair scenarios run for
	// Context.RunFor.
	Window time.Duration
}

// FixedFactories returns a Campaign.Factories that ignores the baselines
// and hands back fs.
func FixedFactories(fs ...models.Factory) func(map[string]division.Baseline) []models.Factory {
	return func(map[string]division.Baseline) []models.Factory { return fs }
}

// activeObjective is the default Campaign.Objectives.
var activeObjective = []Objective{ObjectiveActive}

// Result holds a campaign's rows. Every model's column, per objective for
// pair campaigns, is a view into one slab allocated per Evaluate call, in
// scenario order.
type Result struct {
	// Factories is the roster Campaign.Factories returned; model index m
	// of Pairs and Traffic is Factories[m].
	Factories []models.Factory

	n       int
	pairs   *pairTable
	traffic []TrafficEvaluation
}

// pairTable is a pair campaign's storage, behind a pointer so that the
// Result a traffic campaign copies stays small: every model's column per
// objective, and one slab of each scenario's share vectors — its truth
// under each objective, then each model's estimated shares — in blocks of
// stride entries (the most applications of any scenario). Rows slice
// their vectors out of it, so no row allocates.
type pairTable struct {
	objs, width, stride int
	rows                []Evaluation
	shares              []float64
}

// newPairTable sizes the storage of fs models scored under objs
// objectives on scenarios.
func newPairTable(scenarios []Scenario, fs, objs int) *pairTable {
	t := &pairTable{objs: objs, width: objs + fs, rows: make([]Evaluation, fs*objs*len(scenarios))}
	for _, s := range scenarios {
		t.stride = max(t.stride, len(s.Apps))
	}
	t.shares = make([]float64, len(scenarios)*t.width*t.stride)
	return t
}

// vector returns scenario i's share vector j, k entries long: objective
// j's truth for j < objs, model j−objs's estimated shares after.
func (t *pairTable) vector(i, j, k int) []float64 {
	off := (i*t.width + j) * t.stride
	return t.shares[off : off+k : off+k]
}

// Pairs returns model m's rows for objective o (index-aligned with
// Campaign.Objectives) of a pair campaign.
func (r Result) Pairs(m, o int) []Evaluation {
	i := (m*r.pairs.objs + o) * r.n
	return r.pairs.rows[i : i+r.n : i+r.n]
}

// Traffic returns model m's rows of a traffic or timeline campaign.
func (r Result) Traffic(m int) []TrafficEvaluation {
	i := m * r.n
	return r.traffic[i : i+r.n : i+r.n]
}

// pairRow addresses scenario i's row of model m under objective o.
func (r Result) pairRow(m, o, i int) *Evaluation {
	return &r.pairs.rows[(m*r.pairs.objs+o)*r.n+i]
}

// trafficRow addresses scenario i's row of model m.
func (r Result) trafficRow(m, i int) *TrafficEvaluation { return &r.traffic[m*r.n+i] }

// Measure is protocol phase 1: each application runs alone, and its
// baseline — mean noise-free power, mean idle+residual and mean busy cores
// over the least-extreme stable window — is extracted. Residual follows
// the paper's definition and includes idle consumption. Solo runs execute
// across the worker pool and go through ctx.Cache's byte-capped baseline
// tier (memory, then disk), so phase 1 keeps three floats per solo run.
//
// Baselines are keyed by application type: a traffic instance is measured
// without its lifetime offsets under its BaseID, so every instance of a
// type shares one solo run.
//
// cctx is checked before each solo run, not inside it: a baseline is
// shared through the (possibly job-scoped) cache, and a compute one
// singleflight caller owns must not be aborted by another caller's
// deadline. Solo runs are short, so the drain latency is one run.
func Measure(cctx context.Context, ctx Context, apps []AppSpec) (map[string]division.Baseline, error) {
	results := make([]division.Baseline, len(apps))
	var err error
	if len(apps) == 1 {
		// One application needs no fan-out, and without the closure ctx
		// stays on the stack.
		results[0], err = measureApp(cctx, &ctx, apps[0])
	} else {
		// The workers' copy: the closure moves it to the heap.
		shared := ctx
		err = forEachIndexed(len(apps), func(i int) (err error) {
			results[i], err = measureApp(cctx, &shared, apps[i])
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]division.Baseline, len(apps))
	for i, app := range apps {
		out[app.baselineID()] = results[i]
	}
	return out, nil
}

// measureApp is one application's solo run and baseline extraction,
// through ctx.Cache.
func measureApp(cctx context.Context, ctx *Context, app AppSpec) (division.Baseline, error) {
	if err := cctx.Err(); err != nil {
		return division.Baseline{}, err
	}
	app = app.baselineSpec()
	cfg := ctx.Machine
	cfg.Seed = rng.Derive(ctx.Seed, "solo", app.ID)
	return ctx.Cache.baselineCached(cfg, []machine.Proc{app.proc()}, ctx.RunFor, ctx.StableWindow, app.ID)
}

// Evaluate is protocol phases 2–3 for campaign c: phase 1 first unless c
// carries baselines, then each scenario simulated exactly once while every
// model observes the stream, and scored. Scenarios run across the worker
// pool; every simulation and model seed derives from the campaign seed,
// the kind and the scenario's label, so each row is bit-identical whatever
// other scenarios run, in what order, or in which process — a
// one-scenario call reproduces the matching row of the whole campaign.
//
// cctx is the cancellation seam: it is polled once per simulated tick, so
// a cancelled context (client disconnect, job deadline) aborts in-flight
// simulators mid-run, drains the worker pool and returns the shared worker
// budget to full; the error then unwraps to cctx's cause. An uncancelled
// cctx changes nothing.
func Evaluate(cctx context.Context, ctx Context, c Campaign) (Result, error) {
	objs := c.Objectives
	switch c.Kind {
	case PairCampaign:
		if len(objs) == 0 {
			objs = activeObjective
		}
	case TrafficCampaign, TimelineCampaign:
		if c.Window <= 0 {
			return Result{}, fmt.Errorf("protocol: non-positive %s window %v", c.Kind, c.Window)
		}
	default:
		return Result{}, fmt.Errorf("protocol: unknown campaign kind %q", c.Kind)
	}
	baselines := c.Baselines
	if baselines == nil {
		var err error
		if baselines, err = Measure(cctx, ctx, BaselineAppsOf(c.Scenarios)); err != nil {
			return Result{}, err
		}
	}
	if c.Kind != PairCampaign {
		// Phase 1 has run for ctx.RunFor; the scenarios run for the window.
		ctx.RunFor = c.Window
	}
	fs := c.Factories(baselines)
	p := newCampaignPlan(ctx, fs, c.Kind)
	p.baselines, p.objectives, p.r0 = baselines, objs, c.R0
	n := len(c.Scenarios)
	res := Result{Factories: fs, n: n}
	if c.Kind == PairCampaign {
		res.pairs = newPairTable(c.Scenarios, len(fs), len(objs))
	} else {
		res.traffic = make([]TrafficEvaluation, len(fs)*n)
	}
	scenarios := c.Scenarios
	var err error
	if n == 1 {
		// The service shards jobs one scenario per call; running it inline
		// spares it the fan-out closure, and the plan stays on the stack.
		err = p.scenario(cctx, scenarios[0], res, 0)
	} else {
		// The workers' copy: the closure moves it to the heap.
		shared := p
		err = forEachIndexed(n, func(i int) error { return shared.scenario(cctx, scenarios[i], res, i) })
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// MeasureBaselinesParallel is Measure without a cancellation seam.
//
// Deprecated: use Measure.
func MeasureBaselinesParallel(ctx Context, apps []AppSpec) (map[string]division.Baseline, error) {
	return Measure(context.Background(), ctx, apps)
}

// EvaluateModelsStreaming runs a one-objective pair campaign, phase 1
// included, and returns each model's rows keyed by model name.
//
// Deprecated: use Evaluate with a PairCampaign.
func EvaluateModelsStreaming(ctx Context, scenarios []Scenario, factories func(map[string]division.Baseline) []models.Factory, obj Objective, r0 units.Watts) (map[string][]Evaluation, error) {
	res, err := Evaluate(context.Background(), ctx, Campaign{Kind: PairCampaign, Scenarios: scenarios, Factories: factories, Objectives: []Objective{obj}, R0: r0})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Evaluation, len(res.Factories))
	for m, f := range res.Factories {
		out[f.Name] = res.Pairs(m, 0)
	}
	return out, nil
}

// EvaluateTrafficScenarioStreaming scores every factory over one traffic
// scenario; the rows are index-aligned with fs.
//
// Deprecated: use Evaluate with a one-scenario TrafficCampaign.
func EvaluateTrafficScenarioStreaming(cctx context.Context, ctx Context, s Scenario, fs []models.Factory, baselines map[string]division.Baseline, window time.Duration) ([]TrafficEvaluation, error) {
	res, err := Evaluate(cctx, ctx, Campaign{Kind: TrafficCampaign, Scenarios: []Scenario{s}, Factories: FixedFactories(fs...), Baselines: baselines, Window: window})
	return res.traffic, err
}
