package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
)

func smallTrafficConfig(ctx protocol.Context) traffic.Config {
	cfg := TrafficConfig(ctx, traffic.Mixed, 6, 8*time.Second)
	cfg.ArrivalsPerMinute = 90
	cfg.MeanLifetime = 2 * time.Second
	return cfg
}

// TestTrafficCampaignShape runs a small mixed campaign end to end and pins
// the result surface: every model summarized, the trace replayable, the
// capacity cap derived from the context's topology.
func TestTrafficCampaignShape(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.SmallIntel(), 17)
	cfg := smallTrafficConfig(ctx)
	if cfg.MaxCPUs != cpumodel.SmallIntel().Topology.PhysicalCores() {
		t.Fatalf("lab MaxCPUs = %d, want physical cores", cfg.MaxCPUs)
	}
	if prod := TrafficConfig(ProdContext(cpumodel.SmallIntel(), 17), traffic.Poisson, 1, time.Second); prod.MaxCPUs != cpumodel.SmallIntel().Topology.LogicalCPUs() {
		t.Fatalf("prod MaxCPUs = %d, want logical CPUs", prod.MaxCPUs)
	}

	res, err := TrafficCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != cfg.Scenarios || res.Instances <= res.Scenarios {
		t.Fatalf("campaign shape: %d scenarios, %d instances", res.Scenarios, res.Instances)
	}
	if res.Baselines <= 0 || res.Baselines >= res.Instances {
		t.Fatalf("baseline sharing: %d baselines for %d instances", res.Baselines, res.Instances)
	}
	want := []string{"scaphandre", "powerapi", "kepler", "smartwatts", "f2", "oracle"}
	for _, name := range want {
		if _, ok := res.Summaries[name]; !ok {
			t.Errorf("campaign missing model %s (have %v)", name, summaryNames(res))
		}
	}
	for name, s := range res.Summaries {
		if s.MeanCoverage < 0 || s.MeanCoverage > 1 || math.IsNaN(s.MeanAE) {
			t.Errorf("%s: MeanAE %v MeanCoverage %v", name, s.MeanAE, s.MeanCoverage)
		}
		if len(s.Evaluations) != cfg.Scenarios {
			t.Errorf("%s: %d evaluations for %d scenarios", name, len(s.Evaluations), cfg.Scenarios)
		}
	}
	// F2 sees instance-keyed per-core baselines, so churn campaigns must
	// keep it well below the flat-share models' worst case.
	if f2, scaph := res.Summaries["f2"], res.Summaries["scaphandre"]; f2.MeanAE >= scaph.MeanAE+0.25 {
		t.Errorf("F2 MeanAE %v vs scaphandre %v: per-instance baselines not engaged", f2.MeanAE, scaph.MeanAE)
	}

	// The table renders one row per model plus the header.
	tbl := res.Table()
	if tbl == nil || !strings.Contains(tbl.Title, "traffic campaign") {
		t.Fatalf("table: %+v", tbl)
	}

	// The recorded trace replays to an identical error table.
	data, err := res.Trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := TrafficReplay(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range res.Summaries {
		r := replayed.Summaries[name]
		if math.Float64bits(s.MeanAE) != math.Float64bits(r.MeanAE) ||
			math.Float64bits(s.MaxAE) != math.Float64bits(r.MaxAE) ||
			math.Float64bits(s.MeanCoverage) != math.Float64bits(r.MeanCoverage) {
			t.Errorf("%s: replay diverged: %+v vs %+v", name, s, r)
		}
	}
	if !reflect.DeepEqual(res.Trace, replayed.Trace) {
		t.Error("replay did not preserve the trace")
	}
}

func summaryNames(res TrafficResult) []string {
	names := make([]string, 0, len(res.Summaries))
	for name := range res.Summaries {
		names = append(names, name)
	}
	return names
}

// TestTrafficCampaignDeterministic reruns the same campaign: results must
// be bit-identical (the acceptance criterion behind the -traffic CLI).
func TestTrafficCampaignDeterministic(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.SmallIntel(), 23)
	cfg := smallTrafficConfig(ctx)
	a, err := TrafficCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrafficCampaign(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical traffic campaigns diverged")
	}
}
