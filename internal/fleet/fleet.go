// Package fleet scales the evaluation protocol from one simulated machine
// to a datacenter: hundreds-to-thousands of heterogeneous nodes, each a
// varied machine spec (mixed SMALL-INTEL/DAHU-derived families at
// different core counts, per-node clock skew, sensor-noise grade and
// seed), each running its own deterministic share of traffic churn
// scenarios through the fused streaming pipeline, with per-model error
// distributions aggregated fleet-wide.
//
// Determinism contract: everything derives from (Config.Seed, node ID).
// Node specs, traffic shards and protocol seeds are pure functions of
// that pair, so adding nodes to a fleet never changes the scenarios — or
// results — of existing nodes, and two runs of the same config produce
// bit-identical aggregates. Cross-node reductions accumulate in node
// index order (node IDs are zero-padded, so index order is sorted-ID
// order), never in map order, keeping float sums reproducible — the same
// rule workload.CostOn and division.normalize follow.
//
// Memory contract: node evaluation streams — one fused simulate → observe
// → score pass per scenario — and each node's full evaluation rows are
// reduced to compact per-model error slices as soon as the node finishes,
// so peak live heap is bounded by the in-flight workers' scenario state
// plus the compact aggregates, not by fleet size × run length.
package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/rng"
	"powerdiv/internal/traffic"
	"powerdiv/internal/units"
)

// Node is one simulated machine of the fleet.
type Node struct {
	// ID is the node's zero-padded name ("node-00042"): index order is
	// sorted-ID order, which the aggregation order relies on.
	ID string
	// Class names the spec variant family the node was drawn from.
	Class string
	// Machine is the node's fully varied simulator config.
	Machine machine.Config
	// MaxCPUs is the node's schedulable capacity, the cap its traffic
	// shard respects.
	MaxCPUs int
}

// Config parameterizes a fleet campaign.
type Config struct {
	// Nodes is the fleet size (default 200, max 99999 — the ID padding
	// keeps sorted order equal to index order).
	Nodes int
	// Seed makes the whole fleet — specs, shards, noise — deterministic.
	Seed int64
	// Kind is the arrival shape of every node's traffic shard.
	Kind traffic.Kind
	// ScenariosPerNode is each node's scenario count (default 1).
	ScenariosPerNode int
	// Window is each scenario's duration (default 10s).
	Window time.Duration
	// RunFor and StableWindow configure the per-node protocol context's
	// phase 1 baseline runs (defaults 10s / 4s — shorter than the paper's
	// 30s / 10s because a fleet runs hundreds of phase 1 sweeps).
	RunFor       time.Duration
	StableWindow time.Duration
	// Production enables hyperthreading and turbo on every node — the
	// paper's production context, and a datacenter's usual shape.
	Production bool
	// Kernels is the cohort mix of every node's shard (defaults to the
	// traffic package's 12 stress functions).
	Kernels []string
	// Baseload passes through to each node's traffic config: 0 defaults
	// to 2 always-on anchors, traffic.NoBaseload means none.
	Baseload int
}

const (
	defaultNodes        = 200
	maxNodes            = 99999
	defaultWindow       = 10 * time.Second
	defaultRunFor       = 10 * time.Second
	defaultStableWindow = 4 * time.Second
)

// The per-node hardware variation every fleet draws.
const (
	// FreqSkewFrac is the maximum fractional per-node clock skew; each
	// node draws a scale factor uniform in [1−f, 1+f].
	FreqSkewFrac = 0.03
	// NoiseJitterFrac spreads per-node sensor grade: each node scales
	// BaseNoise by a factor uniform in [1, 1+f].
	NoiseJitterFrac = 0.5
	// BaseNoise is the base sensor-noise standard deviation, the
	// calibrations' stress-ng spread.
	BaseNoise = units.Watts(0.25)
)

// WithDefaults fills unset fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = defaultNodes
	}
	if c.ScenariosPerNode <= 0 {
		c.ScenariosPerNode = 1
	}
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.RunFor <= 0 {
		c.RunFor = defaultRunFor
	}
	if c.StableWindow <= 0 {
		c.StableWindow = defaultStableWindow
	}
	return c
}

// Validate checks a defaulted config.
func (c Config) Validate() error {
	if c.Nodes > maxNodes {
		return fmt.Errorf("fleet: %d nodes exceeds the %d-node ID space", c.Nodes, maxNodes)
	}
	if c.StableWindow > c.RunFor {
		return fmt.Errorf("fleet: stable window %v exceeds run duration %v", c.StableWindow, c.RunFor)
	}
	return nil
}

// nodeClass is one hardware generation the fleet mixes: a calibrated base
// spec at a given per-socket core count.
type nodeClass struct {
	name  string
	base  func() cpumodel.Spec
	cores int
}

// nodeClasses are the capacity-heterogeneous variants fleet nodes draw
// from: SMALL-INTEL-derived workstations at 4/6/8 cores per socket and
// DAHU-derived dual-socket servers at 8/12/16.
var nodeClasses = []nodeClass{
	{"small-intel/4c", cpumodel.SmallIntel, 4},
	{"small-intel/6c", cpumodel.SmallIntel, 6},
	{"small-intel/8c", cpumodel.SmallIntel, 8},
	{"dahu/8c", cpumodel.Dahu, 8},
	{"dahu/12c", cpumodel.Dahu, 12},
	{"dahu/16c", cpumodel.Dahu, 16},
}

// NodeID names node i.
func NodeID(i int) string { return fmt.Sprintf("node-%05d", i) }

// NewNode derives node i of the fleet: a pure function of (cfg.Seed, i),
// independent of every other node, which is what makes the node set
// growable without disturbing existing nodes.
func NewNode(cfg Config, i int) Node {
	id := NodeID(i)
	gen := rng.New(rng.Derive(cfg.Seed, "node", id))
	cl := nodeClasses[gen.Intn(len(nodeClasses))]
	skew := 1 + (2*gen.Float64()-1)*FreqSkewFrac
	noiseScale := 1 + gen.Float64()*NoiseJitterFrac
	base := machine.Config{
		Spec:           cl.base(),
		Hyperthreading: cfg.Production,
		Turbo:          cfg.Production,
		NoiseStddev:    BaseNoise,
	}
	mc := base.WithVariation(machine.Variation{
		SpecName:       fmt.Sprintf("%s@%s", cl.name, id),
		CoresPerSocket: cl.cores,
		FreqScale:      skew,
		NoiseScale:     noiseScale,
		Seed:           rng.Derive(cfg.Seed, "noise", id),
	})
	maxCPUs := mc.Spec.Topology.PhysicalCores()
	if mc.Hyperthreading {
		maxCPUs = mc.Spec.Topology.LogicalCPUs()
	}
	return Node{ID: id, Class: cl.name, Machine: mc, MaxCPUs: maxCPUs}
}

// Nodes instantiates the whole fleet in index order.
func Nodes(cfg Config) []Node {
	out := make([]Node, cfg.Nodes)
	for i := range out {
		out[i] = NewNode(cfg, i)
	}
	return out
}

// NodeTrafficConfig is node n's traffic shard: seeded by (fleet seed,
// node ID) alone and capped by the node's own capacity, so the shard is
// stable under fleet growth and contention-free on that node.
func NodeTrafficConfig(cfg Config, n Node) traffic.Config {
	return traffic.Config{
		Kind:      cfg.Kind,
		Seed:      rng.Derive(cfg.Seed, "traffic", n.ID),
		Scenarios: cfg.ScenariosPerNode,
		Window:    cfg.Window,
		Kernels:   cfg.Kernels,
		MaxCPUs:   n.MaxCPUs,
		Baseload:  cfg.Baseload,
	}.WithDefaults()
}

// NodeScenarios generates node n's scenarios.
func NodeScenarios(cfg Config, n Node) ([]protocol.Scenario, error) {
	return traffic.Generate(NodeTrafficConfig(cfg, n))
}

// nodeContext is node n's protocol evaluation context, memoized in the
// campaign's cache scope.
func nodeContext(cfg Config, n Node, cache *protocol.CacheScope) protocol.Context {
	return protocol.Context{
		Machine:      n.Machine,
		RunFor:       cfg.RunFor,
		StableWindow: cfg.StableWindow,
		Seed:         rng.Derive(cfg.Seed, "ctx", n.ID),
		Cache:        cache,
	}
}

// nodeFactories builds the seven-model roster a node scores: the six
// intrusive families of the single-machine campaigns plus the
// WattScope-style non-intrusive model, which sees only machine power and
// coarse utilization — the fleet operator's signal.
func nodeFactories(scenarios []protocol.Scenario) func(map[string]division.Baseline) []models.Factory {
	return func(baselines map[string]division.Baseline) []models.Factory {
		return []models.Factory{
			models.NewScaphandre(),
			models.NewPowerAPI(models.DefaultPowerAPIConfig()),
			models.NewKepler(),
			models.NewSmartWatts(models.DefaultSmartWattsConfig()),
			models.NewF2(protocol.InstancePerCore(scenarios, baselines)),
			models.NewOracle(),
			models.NewWattScope(),
		}
	}
}

// NodeDigest is the compact per-node reduction kept after a node's full
// evaluation rows are dropped: per-model error samples and coverage, plus
// roster counts. Everything the fleet aggregate needs, nothing sized by
// run length. It is also the fleet job's per-shard result unit in the
// campaign service — JSON-serializable, and a pure function of
// (Config.Seed, node ID), so a digest computed before a daemon restart is
// bit-identical to one computed after.
type NodeDigest struct {
	Node      Node `json:"node"`
	Scenarios int  `json:"scenarios"`
	Instances int  `json:"instances"`
	// AEs and Coverages are per-model, scenario-ordered (model name →
	// one value per scenario).
	AEs       map[string][]float64 `json:"aes"`
	Coverages map[string][]float64 `json:"coverages"`
}

// EvaluateNode runs one node's full protocol — phase 1 baselines over its
// shard's application types, then every scenario of its traffic campaign
// (protocol.Evaluate) — and reduces the result immediately. cctx is the
// cancellation seam: a cancelled context aborts the node's in-flight
// simulator at the next tick. cache is the campaign's memoization scope;
// nil means no memoization.
func EvaluateNode(cctx context.Context, cfg Config, n Node, cache *protocol.CacheScope) (NodeDigest, error) {
	scenarios, err := NodeScenarios(cfg, n)
	if err != nil {
		return NodeDigest{}, fmt.Errorf("fleet: %s: %w", n.ID, err)
	}
	res, err := protocol.Evaluate(cctx, nodeContext(cfg, n, cache), protocol.Campaign{
		Kind: protocol.TrafficCampaign, Scenarios: scenarios, Factories: nodeFactories(scenarios), Window: cfg.Window,
	})
	if err != nil {
		return NodeDigest{}, fmt.Errorf("fleet: %s: %w", n.ID, err)
	}
	out := NodeDigest{
		Node:      n,
		Scenarios: len(scenarios),
		AEs:       make(map[string][]float64, len(res.Factories)),
		Coverages: make(map[string][]float64, len(res.Factories)),
	}
	for _, s := range scenarios {
		out.Instances += len(s.Apps)
	}
	for m, f := range res.Factories {
		evs := res.Traffic(m)
		aes := make([]float64, len(evs))
		covs := make([]float64, len(evs))
		for i, ev := range evs {
			aes[i] = ev.AE
			covs[i] = ev.Coverage
		}
		out.AEs[f.Name] = aes
		out.Coverages[f.Name] = covs
	}
	return out, nil
}

// ModelStats is one model's fleet-wide error distribution.
type ModelStats struct {
	Model string
	// MeanAE / MaxAE aggregate the per-scenario Eq 5 absolute errors of
	// the scored scenarios across every node. A scenario in which the
	// model scored no tick has no error, not a zero one; its coverage is 0,
	// which is how a digest marks it.
	MeanAE float64
	MaxAE  float64
	// P50 / P90 / P99 are nearest-rank quantiles of the same distribution.
	P50 float64
	P90 float64
	P99 float64
	// MeanCoverage averages per-scenario estimate coverage fleet-wide,
	// over every scenario.
	MeanCoverage float64
	// WorstNode is the node with the highest per-node mean AE over its
	// scored scenarios.
	WorstNode       string
	WorstNodeMeanAE float64
	// Scenarios is the number of scored scenarios in the distribution.
	Scenarios int
}

// Result is a fleet campaign's aggregate outcome.
type Result struct {
	Nodes     int
	Scenarios int
	Instances int
	Window    time.Duration
	Kind      string
	// Classes counts nodes per spec-variant class.
	Classes map[string]int
	// Models holds one aggregate per model family, sorted by name.
	Models []ModelStats
}

// Campaign evaluates the whole fleet: nodes run concurrently on the
// shared protocol worker budget (node-level and per-node parallelism draw
// from one GOMAXPROCS pool), and the per-node reductions are folded into
// fleet aggregates strictly in node index order — zero-padded IDs make
// that sorted-node order — so float accumulation never depends on
// scheduling or map iteration. cache is the campaign's memoization scope,
// shared by every node; nil means no memoization.
func Campaign(cfg Config, cache *protocol.CacheScope) (Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	nodes := Nodes(cfg)
	outcomes := make([]NodeDigest, len(nodes))
	// Nodes go to the worker pool in contiguous index batches rather than
	// one task per node: a node is a short task on the default config (one
	// traffic scenario), and with per-node dispatch the handout and budget
	// traffic outweighed the parallelism — two workers measured *slower*
	// than one on small fleets. Each worker owns whole batches and writes
	// outcomes by node index, so Reduce folds in exactly the order the
	// unbatched loop produced and aggregates stay bit-identical.
	batch := nodeBatch(len(nodes))
	tasks := (len(nodes) + batch - 1) / batch
	err := protocol.ForEach(tasks, func(t int) error {
		lo, hi := t*batch, (t+1)*batch
		if hi > len(nodes) {
			hi = len(nodes)
		}
		for i := lo; i < hi; i++ {
			out, err := EvaluateNode(context.Background(), cfg, nodes[i], cache)
			if err != nil {
				return err
			}
			outcomes[i] = out
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Reduce(cfg, outcomes), nil
}

// nodeBatch sizes Campaign's per-task node batches: small enough for ~4
// batches per worker (load balancing across heterogeneous node costs),
// large enough to amortize task dispatch on small fleets.
func nodeBatch(n int) int {
	b := n / (4 * runtime.GOMAXPROCS(0))
	if b < 1 {
		b = 1
	}
	return b
}

// Reduce folds per-node digests into the fleet aggregate, visiting nodes
// in index order and models in sorted-name order. Exported so the campaign
// service can fold resumed shard digests with exactly the Campaign
// accumulation order.
func Reduce(cfg Config, outcomes []NodeDigest) Result {
	res := Result{
		Nodes:   len(outcomes),
		Window:  cfg.Window,
		Kind:    cfg.Kind.String(),
		Classes: map[string]int{},
	}
	modelNames := map[string]bool{}
	for i := range outcomes {
		res.Scenarios += outcomes[i].Scenarios
		res.Instances += outcomes[i].Instances
		res.Classes[outcomes[i].Node.Class]++
		for name := range outcomes[i].AEs {
			modelNames[name] = true
		}
	}
	names := make([]string, 0, len(modelNames))
	for name := range modelNames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// fold takes every scenario of every node, in node order, and worst
		// each node's mean; the quantiles sort the scored errors.
		var fold, worst protocol.AEFold
		var all []float64
		for i := range outcomes {
			aes, covs := outcomes[i].AEs[name], outcomes[i].Coverages[name]
			var node protocol.AEFold
			for k, c := range covs {
				// Coverage 0 marks an unscored scenario.
				var ae float64
				scored := k < len(aes) && c != 0
				if scored {
					ae = aes[k]
					all = append(all, ae)
				}
				node.Add(ae, c, scored)
				fold.Add(ae, c, scored)
			}
			worst.Add(node.MeanAE(), 0, node.Scored() > 0)
		}
		st := ModelStats{Model: name, MeanAE: fold.MeanAE(), MaxAE: fold.MaxAE(),
			MeanCoverage: fold.MeanCoverage(), WorstNodeMeanAE: worst.MaxAE(), Scenarios: fold.Scored()}
		if w := worst.Worst(); w >= 0 {
			st.WorstNode = outcomes[w].Node.ID
		}
		sort.Float64s(all)
		st.P50 = quantile(all, 0.50)
		st.P90 = quantile(all, 0.90)
		st.P99 = quantile(all, 0.99)
		res.Models = append(res.Models, st)
	}
	return res
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
