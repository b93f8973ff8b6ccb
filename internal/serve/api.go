package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/experiments"
	"powerdiv/internal/fleet"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
	"powerdiv/internal/workload"
)

// Job kinds a submission selects. Every kind shards into independent units
// (scenarios, or fleet nodes) whose results are pure functions of the spec,
// which is what makes snapshots resumable bit for bit.
const (
	// KindTraffic generates timed churn rosters and scores the traffic
	// model roster per scenario.
	KindTraffic = "traffic"
	// KindTrace replays a recorded traffic.Trace (version 1 JSON).
	KindTrace = "trace"
	// KindPairs runs the paper's static stress-pair campaign.
	KindPairs = "pairs"
	// KindFleet runs a heterogeneous fleet campaign, sharded per node.
	KindFleet = "fleet"
)

// SubmitRequest is the POST /v1/jobs body. Durations are integral
// milliseconds so the JSON stays language-neutral. Unset fields take the
// documented defaults; which fields apply depends on Kind.
type SubmitRequest struct {
	// Kind is "traffic", "trace", "pairs" or "fleet".
	Kind string `json:"kind"`
	// Context selects the paper's machine context: "lab" (default;
	// hyperthreading and turbo off) or "prod".
	Context string `json:"context,omitempty"`
	// Machine names the calibrated spec ("SMALL INTEL", default, or
	// "DAHU"). Fleet jobs derive per-node specs instead.
	Machine string `json:"machine,omitempty"`
	// Seed drives every derived seed of the job.
	Seed int64 `json:"seed,omitempty"`
	// RunForMS / StableWindowMS override the protocol context's run
	// duration and scored-window length.
	RunForMS       int64 `json:"run_for_ms,omitempty"`
	StableWindowMS int64 `json:"stable_window_ms,omitempty"`

	// Traffic fields.
	Arrivals  string   `json:"arrivals,omitempty"` // poisson|bursty|diurnal|mixed
	Scenarios int      `json:"scenarios,omitempty"`
	WindowMS  int64    `json:"window_ms,omitempty"`
	Kernels   []string `json:"kernels,omitempty"`
	Baseload  int      `json:"baseload,omitempty"`

	// Trace replay.
	Trace *traffic.Trace `json:"trace,omitempty"`

	// Pairs fields: stress function names × thread sizes.
	Functions []string `json:"functions,omitempty"`
	Sizes     []int    `json:"sizes,omitempty"`

	// Fleet fields.
	Nodes            int `json:"nodes,omitempty"`
	ScenariosPerNode int `json:"scenarios_per_node,omitempty"`

	// Job control.
	//
	// DeadlineMS bounds the job's wall-clock run; past it the in-flight
	// simulators abort at the next tick and the job fails with the
	// deadline error. CacheBytes budgets the job's private memoization
	// tier (0 = server default); Stream asks the submission response to
	// stream NDJSON rows instead of returning 202 immediately.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	Stream     bool  `json:"stream,omitempty"`
}

// Admission bounds beyond Options' roster caps: durations and list lengths
// a submission may request. They keep compile itself cheap (compile runs
// before admission control can reject) and job cost proportional to the
// roster caps.
const (
	maxDurationMS = 10 * 60 * 1000 // 10 simulated minutes per run/window
	maxFunctions  = 16
	maxSizes      = 8
	maxThreadSize = 64
	maxKernelList = 64
)

// checkDurations bounds every duration field of a submission.
func checkDurations(spec SubmitRequest) *APIError {
	for _, d := range []struct {
		name string
		ms   int64
	}{
		{"run_for_ms", spec.RunForMS},
		{"stable_window_ms", spec.StableWindowMS},
		{"window_ms", spec.WindowMS},
		{"deadline_ms", spec.DeadlineMS},
	} {
		if d.ms < 0 {
			e := apiErrorf(ErrBadRequest, "%s must be non-negative", d.name)
			return &e
		}
		if d.ms > maxDurationMS {
			e := apiErrorf(ErrBadRequest, "%s %d exceeds the %d ms cap", d.name, d.ms, int64(maxDurationMS))
			return &e
		}
	}
	if len(spec.Kernels) > maxKernelList {
		e := apiErrorf(ErrBadRequest, "%d kernels exceed the %d cap", len(spec.Kernels), maxKernelList)
		return &e
	}
	return nil
}

// runnable is a compiled submission: everything a runner needs to evaluate
// shards, plus the fingerprint binding snapshots to the spec. A job's spec
// compiles once — at admission, or when its snapshot loads — and the Job
// carries the runnable to its runner. It is never serialized, so a
// snapshot is valid exactly when its spec still compiles to the same
// fingerprint.
type runnable struct {
	kind        string
	units       int
	labels      []string
	fingerprint string

	// Scenario kinds.
	pctx      protocol.Context
	scenarios []protocol.Scenario
	window    time.Duration
	factories func(map[string]division.Baseline) []models.Factory

	// Fleet kind.
	fleetCfg fleet.Config
	nodes    []fleet.Node
}

// compile validates a submission against the server's admission caps and
// builds its runnable. The returned *APIError carries the typed code the
// HTTP layer writes; compile succeeding is the "accepted" in the fuzz
// contract accepted ⇒ resumable.
func compile(spec SubmitRequest, opts Options) (*runnable, *APIError) {
	if aerr := checkDurations(spec); aerr != nil {
		return nil, aerr
	}
	switch spec.Kind {
	case KindTraffic, KindTrace, KindPairs:
		return compileScenarioJob(spec, opts)
	case KindFleet:
		return compileFleetJob(spec, opts)
	default:
		e := apiErrorf(ErrBadRequest, "unknown kind %q (want traffic, trace, pairs or fleet)", spec.Kind)
		return nil, &e
	}
}

// protocolContext builds the job's protocol context from the shared
// machine/context/seed fields. compile has already bounded the durations
// (checkDurations).
func protocolContext(spec SubmitRequest) (protocol.Context, *APIError) {
	name := spec.Machine
	if name == "" {
		name = cpumodel.SmallIntel().Name
	}
	mspec, ok := cpumodel.SpecByName(name)
	if !ok {
		e := apiErrorf(ErrBadRequest, "unknown machine %q", spec.Machine)
		return protocol.Context{}, &e
	}
	var pctx protocol.Context
	switch spec.Context {
	case "", "lab":
		pctx = experiments.LabContext(mspec, spec.Seed)
	case "prod":
		pctx = experiments.ProdContext(mspec, spec.Seed)
	default:
		e := apiErrorf(ErrBadRequest, "unknown context %q (want lab or prod)", spec.Context)
		return protocol.Context{}, &e
	}
	if spec.RunForMS > 0 {
		pctx.RunFor = time.Duration(spec.RunForMS) * time.Millisecond
	}
	if spec.StableWindowMS > 0 {
		pctx.StableWindow = time.Duration(spec.StableWindowMS) * time.Millisecond
	}
	return pctx, nil
}

// trafficInputs checks the kernel list of a traffic or fleet submission
// and parses its arrival process (Poisson when unset).
func trafficInputs(spec SubmitRequest) (traffic.Kind, *APIError) {
	for _, k := range spec.Kernels {
		if !workload.Known(k) {
			e := apiErrorf(ErrUnknownKernel, "unknown kernel %q", k)
			return 0, &e
		}
	}
	if spec.Arrivals == "" {
		return traffic.Poisson, nil
	}
	kind, err := traffic.KindByName(spec.Arrivals)
	if err != nil {
		e := apiErrorf(ErrBadRequest, "%v", err)
		return 0, &e
	}
	return kind, nil
}

// compileScenarioJob builds the runnable of the three scenario-sharded
// kinds. Scenario order — and so unit indexes — is deterministic for a
// spec, which the snapshot format relies on.
func compileScenarioJob(spec SubmitRequest, opts Options) (*runnable, *APIError) {
	pctx, aerr := protocolContext(spec)
	if aerr != nil {
		return nil, aerr
	}
	rn := &runnable{kind: spec.Kind, pctx: pctx}
	switch spec.Kind {
	case KindTraffic:
		kind, aerr := trafficInputs(spec)
		if aerr != nil {
			return nil, aerr
		}
		n := spec.Scenarios
		if n <= 0 {
			n = 3
		}
		if n > opts.MaxScenarios {
			e := apiErrorf(ErrRosterTooLarge, "%d scenarios exceed the cap of %d", n, opts.MaxScenarios)
			return nil, &e
		}
		window := 10 * time.Second
		if spec.WindowMS > 0 {
			window = time.Duration(spec.WindowMS) * time.Millisecond
		}
		tcfg := experiments.TrafficConfig(pctx, kind, n, window)
		tcfg.Kernels = spec.Kernels
		tcfg.Baseload = spec.Baseload
		tcfg = tcfg.WithDefaults()
		if err := tcfg.Validate(); err != nil {
			e := apiErrorf(ErrBadRequest, "%v", err)
			return nil, &e
		}
		scenarios, err := traffic.Generate(tcfg)
		if err != nil {
			e := apiErrorf(ErrBadRequest, "%v", err)
			return nil, &e
		}
		rn.scenarios, rn.window = scenarios, window
	case KindTrace:
		if spec.Trace == nil {
			e := apiErrorf(ErrBadRequest, "trace job without a trace")
			return nil, &e
		}
		// Round-trip through Decode so a submitted trace passes exactly
		// the validation a trace file would (version, schedule sanity).
		raw, err := spec.Trace.Encode()
		if err != nil {
			e := apiErrorf(ErrBadRequest, "%v", err)
			return nil, &e
		}
		tr, err := traffic.Decode(raw)
		if err != nil {
			e := apiErrorf(ErrBadRequest, "%v", err)
			return nil, &e
		}
		if len(tr.Scenarios) > opts.MaxScenarios {
			e := apiErrorf(ErrRosterTooLarge, "%d trace scenarios exceed the cap of %d", len(tr.Scenarios), opts.MaxScenarios)
			return nil, &e
		}
		instances := 0
		for _, s := range tr.Scenarios {
			instances += len(s.Apps)
		}
		if instances > opts.MaxInstances {
			e := apiErrorf(ErrRosterTooLarge, "%d trace instances exceed the cap of %d", instances, opts.MaxInstances)
			return nil, &e
		}
		if tr.Window() > maxDurationMS*time.Millisecond {
			e := apiErrorf(ErrBadRequest, "trace window %v exceeds the %v cap", tr.Window(), maxDurationMS*time.Millisecond)
			return nil, &e
		}
		scenarios, err := tr.ProtocolScenarios()
		if err != nil {
			e := apiErrorf(ErrUnknownKernel, "%v", err)
			return nil, &e
		}
		rn.scenarios, rn.window = scenarios, tr.Window()
	case KindPairs:
		fns := spec.Functions
		if len(fns) == 0 {
			fns = []string{"fibonacci", "int64"}
		}
		if len(fns) > maxFunctions {
			e := apiErrorf(ErrRosterTooLarge, "%d functions exceed the %d cap", len(fns), maxFunctions)
			return nil, &e
		}
		sizes := spec.Sizes
		if len(sizes) == 0 {
			sizes = []int{1, 2}
		}
		if len(sizes) > maxSizes {
			e := apiErrorf(ErrRosterTooLarge, "%d sizes exceed the %d cap", len(sizes), maxSizes)
			return nil, &e
		}
		for _, sz := range sizes {
			if sz <= 0 || sz > maxThreadSize {
				e := apiErrorf(ErrBadRequest, "thread size %d out of range [1,%d]", sz, maxThreadSize)
				return nil, &e
			}
		}
		for _, fn := range fns {
			if !workload.Known(fn) {
				e := apiErrorf(ErrUnknownKernel, "unknown stress function %q", fn)
				return nil, &e
			}
		}
		scenarios, err := protocol.StressPairs(fns, sizes)
		if err != nil {
			e := apiErrorf(ErrUnknownKernel, "%v", err)
			return nil, &e
		}
		if len(scenarios) > opts.MaxScenarios {
			e := apiErrorf(ErrRosterTooLarge, "%d pair scenarios exceed the cap of %d", len(scenarios), opts.MaxScenarios)
			return nil, &e
		}
		rn.scenarios, rn.window = scenarios, pctx.RunFor
	}
	if len(rn.scenarios) == 0 {
		e := apiErrorf(ErrBadRequest, "job compiles to zero scenarios")
		return nil, &e
	}
	rn.units = len(rn.scenarios)
	rn.labels = make([]string, rn.units)
	for i, s := range rn.scenarios {
		rn.labels[i] = s.Label()
	}
	rn.factories = experiments.TrafficFactories(rn.scenarios)
	fpKind := protocol.TrafficCampaign
	if spec.Kind == KindPairs {
		fpKind = protocol.PairCampaign
	}
	rn.fingerprint = protocol.CampaignFingerprint(rn.pctx, rn.scenarios, fpKind, rn.runDuration())
	return rn, nil
}

// runDuration is how long each of the job's simulations runs: the traffic
// window for timed rosters, the protocol RunFor for static pairs.
func (rn *runnable) runDuration() time.Duration {
	if rn.kind == KindPairs {
		return rn.pctx.RunFor
	}
	return rn.window
}

// compileFleetJob builds a fleet runnable: one unit per node.
func compileFleetJob(spec SubmitRequest, opts Options) (*runnable, *APIError) {
	kind, aerr := trafficInputs(spec)
	if aerr != nil {
		return nil, aerr
	}
	n := spec.Nodes
	if n <= 0 {
		n = 8
	}
	if n > opts.MaxNodes {
		e := apiErrorf(ErrRosterTooLarge, "%d fleet nodes exceed the cap of %d", n, opts.MaxNodes)
		return nil, &e
	}
	if spec.ScenariosPerNode > opts.MaxScenarios {
		e := apiErrorf(ErrRosterTooLarge, "%d scenarios per node exceed the cap of %d", spec.ScenariosPerNode, opts.MaxScenarios)
		return nil, &e
	}
	cfg := fleet.Config{
		Nodes:            n,
		Seed:             spec.Seed,
		Kind:             kind,
		ScenariosPerNode: spec.ScenariosPerNode,
		Kernels:          spec.Kernels,
		Baseload:         spec.Baseload,
		Production:       spec.Context == "prod",
	}
	if spec.WindowMS > 0 {
		cfg.Window = time.Duration(spec.WindowMS) * time.Millisecond
	}
	if spec.RunForMS > 0 {
		cfg.RunFor = time.Duration(spec.RunForMS) * time.Millisecond
	}
	if spec.StableWindowMS > 0 {
		cfg.StableWindow = time.Duration(spec.StableWindowMS) * time.Millisecond
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		e := apiErrorf(ErrBadRequest, "%v", err)
		return nil, &e
	}
	nodes := fleet.Nodes(cfg)
	// Validate one node's traffic shard at admission: shard configs differ
	// only in seed and capacity, so node 0 passing means they all do.
	if err := fleet.NodeTrafficConfig(cfg, nodes[0]).Validate(); err != nil {
		e := apiErrorf(ErrBadRequest, "%v", err)
		return nil, &e
	}
	rn := &runnable{
		kind:        KindFleet,
		units:       len(nodes),
		labels:      make([]string, len(nodes)),
		fleetCfg:    cfg,
		nodes:       nodes,
		fingerprint: fleetFingerprint(cfg),
	}
	for i, nd := range nodes {
		rn.labels[i] = nd.ID
	}
	return rn, nil
}

// fleetFingerprint content-addresses a fleet job. The fleet's node specs
// and shards are pure functions of the defaulted config, so hashing the
// config's canonical rendering addresses the same simulations
// CampaignFingerprint addresses for scenario jobs. Kernels are hashed in
// the order given: the generator draws them by index, so order changes
// the schedules.
func fleetFingerprint(cfg fleet.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "fleet|n:%d|seed:%d|kind:%s|spn:%d|win:%d|run:%d|stable:%d|skew:%g|jitter:%g|noise:%g|prod:%t|base:%d",
		cfg.Nodes, cfg.Seed, cfg.Kind, cfg.ScenariosPerNode, int64(cfg.Window), int64(cfg.RunFor),
		int64(cfg.StableWindow), fleet.FreqSkewFrac, fleet.NoiseJitterFrac, float64(fleet.BaseNoise),
		cfg.Production, cfg.Baseload)
	for _, k := range cfg.Kernels {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// shard evaluates unit i and reduces it to its result row. Each unit's row
// is a pure function of (spec, i): simulation and model seeds derive from
// scenario labels or node IDs, never from evaluation order — the property
// the kill-and-resume test pins end to end.
func (rn *runnable) shard(cctx context.Context, i int, baselines map[string]division.Baseline, factories func(map[string]division.Baseline) []models.Factory) (*ResultRow, error) {
	row := &ResultRow{Index: i, Label: rn.labels[i]}
	switch rn.kind {
	case KindFleet:
		digest, err := fleet.EvaluateNode(cctx, rn.fleetCfg, rn.nodes[i], rn.pctx.Cache)
		if err != nil {
			return nil, err
		}
		row.Node = &digest
	default: // KindPairs, KindTraffic, KindTrace
		kind := protocol.TrafficCampaign
		if rn.kind == KindPairs {
			kind = protocol.PairCampaign
		}
		res, err := protocol.Evaluate(cctx, rn.pctx, protocol.Campaign{
			Kind: kind, Scenarios: rn.scenarios[i : i+1], Factories: factories,
			Baselines: baselines, Window: rn.window,
		})
		if err != nil {
			return nil, err
		}
		row.Models = make([]ModelScore, len(res.Factories))
		for m, f := range res.Factories {
			if kind == protocol.PairCampaign {
				ev := res.Pairs(m, 0)[0]
				row.Models[m] = ModelScore{Model: f.Name, AE: ev.AE, ScoredTicks: ev.ScoredTicks}
				continue
			}
			ev := res.Traffic(m)[0]
			row.Models[m] = ModelScore{
				Model:       f.Name,
				AE:          ev.AE,
				Coverage:    ev.Coverage,
				ScoredTicks: ev.ScoredTicks,
				BusyTicks:   ev.BusyTicks,
			}
		}
	}
	return row, nil
}

// measureBaselines runs the job's phase 1 (a no-op for fleet jobs, whose
// nodes measure their own) and builds the factory roster once, for every
// shard to share.
func (rn *runnable) measureBaselines(cctx context.Context, pctx protocol.Context) (map[string]division.Baseline, func(map[string]division.Baseline) []models.Factory, error) {
	if rn.kind == KindFleet {
		return nil, nil, nil
	}
	baselines, err := protocol.Measure(cctx, pctx, protocol.BaselineAppsOf(rn.scenarios))
	if err != nil {
		return nil, nil, err
	}
	return baselines, protocol.FixedFactories(rn.factories(baselines)...), nil
}
