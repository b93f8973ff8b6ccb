package fleet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
)

// testFleet is a fast fleet config: short runs, a 3-kernel cohort, one
// scenario per node.
func testFleet(nodes int, seed int64) Config {
	return Config{
		Nodes:            nodes,
		Seed:             seed,
		ScenariosPerNode: 1,
		Window:           2 * time.Second,
		RunFor:           3 * time.Second,
		StableWindow:     time.Second,
		Kernels:          []string{"fibonacci", "matrixprod", "queens"},
	}
}

// TestCampaignDeterministic pins the fleet aggregation's bit-level
// reproducibility over a 200-node heterogeneous fleet: two runs of the
// same config must agree on every aggregate float to the last bit, which
// fails if any cross-node reduction runs in scheduling or map order
// instead of sorted-node order. The first run has no cache scope and the
// second a fresh one, so the cache is proven invisible to the aggregates
// too.
func TestCampaignDeterministic(t *testing.T) {
	t.Parallel()
	cfg := testFleet(200, 42)
	a, err := Campaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(cfg, protocol.NewCacheScope(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != 200 || a.Scenarios != 200 {
		t.Fatalf("fleet shape: %d nodes, %d scenarios", a.Nodes, a.Scenarios)
	}
	if len(a.Models) != 7 {
		t.Fatalf("got %d model families, want 7", len(a.Models))
	}
	if len(a.Models) != len(b.Models) {
		t.Fatalf("model counts differ: %d vs %d", len(a.Models), len(b.Models))
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	for i := range a.Models {
		ma, mb := a.Models[i], b.Models[i]
		if ma.Model != mb.Model || ma.WorstNode != mb.WorstNode || ma.Scenarios != mb.Scenarios {
			t.Fatalf("model %d identity differs: %+v vs %+v", i, ma, mb)
		}
		for _, pair := range [][2]float64{
			{ma.MeanAE, mb.MeanAE}, {ma.MaxAE, mb.MaxAE},
			{ma.P50, mb.P50}, {ma.P90, mb.P90}, {ma.P99, mb.P99},
			{ma.MeanCoverage, mb.MeanCoverage},
			{ma.WorstNodeMeanAE, mb.WorstNodeMeanAE},
		} {
			if bits(pair[0]) != bits(pair[1]) {
				t.Fatalf("model %s: %v and %v differ at the bit level", ma.Model, pair[0], pair[1])
			}
		}
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Fatalf("class mix differs: %v vs %v", a.Classes, b.Classes)
	}
}

// TestShardingStableUnderGrowth is the seeded property: adding nodes to a
// fleet never changes existing nodes' specs or scenario shards — each
// derives from (seed, node ID) alone.
func TestShardingStableUnderGrowth(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7, 99} {
		small := testFleet(40, seed).WithDefaults()
		large := testFleet(55, seed).WithDefaults()
		ns, nl := Nodes(small), Nodes(large)
		for i := range ns {
			if !reflect.DeepEqual(ns[i], nl[i]) {
				t.Fatalf("seed %d: node %d changed when the fleet grew:\n%+v\nvs\n%+v", seed, i, ns[i], nl[i])
			}
			ss, err := NodeScenarios(small, ns[i])
			if err != nil {
				t.Fatal(err)
			}
			sl, err := NodeScenarios(large, nl[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ss, sl) {
				t.Fatalf("seed %d: node %s's scenarios changed when the fleet grew", seed, ns[i].ID)
			}
		}
	}
}

// TestFleetHeterogeneity checks a 200-node fleet actually mixes hardware:
// several spec classes, distinct capacities, per-node clock skew and
// independent noise seeds.
func TestFleetHeterogeneity(t *testing.T) {
	t.Parallel()
	cfg := testFleet(200, 3).WithDefaults()
	nodes := Nodes(cfg)
	classes := map[string]int{}
	caps := map[int]int{}
	seeds := map[int64]bool{}
	baseFreqs := map[float64]bool{}
	for _, n := range nodes {
		classes[n.Class]++
		caps[n.MaxCPUs]++
		if seeds[n.Machine.Seed] {
			t.Fatalf("node %s shares a noise seed with another node", n.ID)
		}
		seeds[n.Machine.Seed] = true
		baseFreqs[float64(n.Machine.Spec.Freq.Base)] = true
		if err := n.Machine.Spec.Validate(); err != nil {
			t.Fatalf("node %s spec invalid: %v", n.ID, err)
		}
		if !strings.HasPrefix(n.Machine.Spec.Name, n.Class) {
			t.Fatalf("node %s spec name %q does not carry class %q", n.ID, n.Machine.Spec.Name, n.Class)
		}
	}
	if len(classes) < 4 {
		t.Fatalf("only %d spec classes in 200 nodes: %v", len(classes), classes)
	}
	if len(caps) < 3 {
		t.Fatalf("only %d distinct capacities: %v", len(caps), caps)
	}
	if len(baseFreqs) < 50 {
		t.Fatalf("clock skew not engaging: only %d distinct base frequencies", len(baseFreqs))
	}
}

// TestWattScopeFleetSanity pins the non-intrusive model's place in the
// table: present alongside the six intrusive families, finite, and no
// more accurate than the oracle's ground-truth division.
func TestWattScopeFleetSanity(t *testing.T) {
	t.Parallel()
	res, err := Campaign(testFleet(30, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ModelStats{}
	for _, m := range res.Models {
		byName[m.Model] = m
	}
	for _, want := range []string{"scaphandre", "powerapi", "kepler", "smartwatts", "f2", "oracle", "wattscope"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("model %s missing from fleet table: %v", want, byName)
		}
	}
	ws, oracle := byName["wattscope"], byName["oracle"]
	for _, v := range []float64{ws.MeanAE, ws.MaxAE, ws.P50, ws.P90, ws.P99, ws.MeanCoverage} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("wattscope stat not finite: %+v", ws)
		}
	}
	if ws.MeanAE < oracle.MeanAE {
		t.Fatalf("non-intrusive wattscope (%v) beat the oracle (%v)", ws.MeanAE, oracle.MeanAE)
	}
	if ws.MeanAE <= 0 {
		t.Fatalf("wattscope mean AE %v: a power-floor heuristic cannot be exact", ws.MeanAE)
	}
	if ws.MeanCoverage <= 0 {
		t.Fatal("wattscope produced no estimates")
	}
}

// TestConfigValidate covers the fleet config's guard rails.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if _, err := Campaign(Config{Nodes: maxNodes + 1}, nil); err == nil {
		t.Error("accepted a fleet larger than the ID space")
	}
	if _, err := Campaign(Config{Nodes: 1, RunFor: time.Second, StableWindow: 2 * time.Second}, nil); err == nil {
		t.Error("accepted a stable window longer than the run")
	}
	cfg := Config{}.WithDefaults()
	if cfg.Nodes != defaultNodes || cfg.ScenariosPerNode != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
}

// TestNoBaseloadPassthrough checks the fleet honours the traffic
// package's explicit zero-baseload sentinel.
func TestNoBaseloadPassthrough(t *testing.T) {
	t.Parallel()
	cfg := testFleet(3, 5)
	cfg.Baseload = traffic.NoBaseload
	cfg = cfg.WithDefaults()
	n := NewNode(cfg, 0)
	tc := NodeTrafficConfig(cfg, n)
	if tc.Baseload != 0 {
		t.Fatalf("baseload %d, want 0", tc.Baseload)
	}
}

// TestReduceSkipsUnscoredScenarios pins that a scenario in which a model
// scored no tick (coverage 0) has no error, not a zero one: the AE
// distribution, its quantiles and the worst node are over scored
// scenarios only, Scenarios counts them, and coverage is over every
// scenario.
func TestReduceSkipsUnscoredScenarios(t *testing.T) {
	t.Parallel()
	digests := []NodeDigest{
		{Node: Node{ID: "node-00000"}, Scenarios: 2,
			AEs: map[string][]float64{"m": {0, 0.06}}, Coverages: map[string][]float64{"m": {0, 0.5}}},
		{Node: Node{ID: "node-00001"}, Scenarios: 1,
			AEs: map[string][]float64{"m": {0}}, Coverages: map[string][]float64{"m": {0}}},
	}
	res := Reduce(testFleet(2, 1), digests)
	if len(res.Models) != 1 {
		t.Fatalf("got %d models, want 1", len(res.Models))
	}
	st := res.Models[0]
	if st.Scenarios != 1 {
		t.Errorf("Scenarios = %d, want 1 scored", st.Scenarios)
	}
	if st.MeanAE != 0.06 || st.MaxAE != 0.06 || st.P50 != 0.06 || st.P99 != 0.06 {
		t.Errorf("AE distribution mean %v max %v p50 %v p99 %v, want 0.06 throughout", st.MeanAE, st.MaxAE, st.P50, st.P99)
	}
	if st.WorstNode != "node-00000" || st.WorstNodeMeanAE != 0.06 {
		t.Errorf("worst node %s at %v, want node-00000 at 0.06", st.WorstNode, st.WorstNodeMeanAE)
	}
	if want := 0.5 / 3; math.Abs(st.MeanCoverage-want) > 1e-15 {
		t.Errorf("MeanCoverage = %v, want %v over every scenario", st.MeanCoverage, want)
	}
	// With no positive error the worst node is the first scored one.
	digests[0].Coverages["m"][1] = 0
	digests[1].Coverages["m"][0] = 0.5
	if st := Reduce(testFleet(2, 1), digests).Models[0]; st.WorstNode != "node-00001" || st.WorstNodeMeanAE != 0 {
		t.Errorf("zero-error worst node %s at %v, want node-00001 at 0", st.WorstNode, st.WorstNodeMeanAE)
	}
}

// TestReduceMatchesSummarizeTraffic: a fleet node is a traffic campaign,
// so Reduce over one node's digest must give, bit for bit, the summary
// SummarizeTraffic gives over that node's rows from protocol.Evaluate on
// the same context, scenarios and factories. Churn keeps restarting
// PowerAPI's learning window, so it scores only some of the scenarios and
// the rule that an unscored one carries no error is exercised on both
// sides.
func TestReduceMatchesSummarizeTraffic(t *testing.T) {
	t.Parallel()
	cfg := testFleet(1, 9)
	cfg.ScenariosPerNode, cfg.Window = 4, 30*time.Second
	cfg = cfg.WithDefaults()
	n := NewNode(cfg, 0)
	scenarios, err := NodeScenarios(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := protocol.Evaluate(context.Background(), nodeContext(cfg, n, nil), protocol.Campaign{
		Kind: protocol.TrafficCampaign, Scenarios: scenarios, Factories: nodeFactories(scenarios), Window: cfg.Window,
	})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := EvaluateNode(context.Background(), cfg, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleetStats := map[string]ModelStats{}
	for _, st := range Reduce(cfg, []NodeDigest{digest}).Models {
		fleetStats[st.Model] = st
	}
	mixed := false
	for m, f := range res.Factories {
		want := protocol.SummarizeTraffic(f.Name, res.Traffic(m))
		got, ok := fleetStats[f.Name]
		if !ok {
			t.Fatalf("%s: no fleet aggregate", f.Name)
		}
		mixed = mixed || want.Scored > 0 && want.Scored < len(scenarios)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"MeanAE", got.MeanAE, want.MeanAE},
			{"MaxAE", got.MaxAE, want.MaxAE},
			{"MeanCoverage", got.MeanCoverage, want.MeanCoverage},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s %s: fleet %v, traffic summary %v", f.Name, c.name, c.got, c.want)
			}
		}
		if got.Scenarios != want.Scored {
			t.Errorf("%s: fleet counts %d scored scenarios, traffic summary %d", f.Name, got.Scenarios, want.Scored)
		}
	}
	if !mixed {
		t.Error("no model scored some scenarios but not all; the config no longer covers unscored scenarios")
	}
}
