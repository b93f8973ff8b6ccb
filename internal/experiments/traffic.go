package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/traffic"
)

// TrafficResult is one production-shaped traffic campaign: generated (or
// replayed) timed rosters scored per tick by every model on the fused
// streaming pipeline.
type TrafficResult struct {
	Machine   string
	Kind      string
	Scenarios int
	// Instances counts timed application instances across all scenarios;
	// Baselines the distinct application types they resolve to in phase 1.
	Instances int
	Baselines int
	Window    time.Duration
	// Summaries holds one per-model aggregate, keyed by model name.
	Summaries map[string]protocol.TrafficSummary
	// Trace records the exact schedule for replay (commit it next to the
	// results; Decode + TrafficReplay reproduces the campaign bit for bit).
	Trace traffic.Trace
}

// TrafficConfig derives a generator config from an evaluation context: the
// capacity cap follows the context's schedulable CPUs (physical cores in
// the laboratory context, logical CPUs with hyperthreading), so generated
// schedules stay contention-free on that machine.
func TrafficConfig(ctx protocol.Context, kind traffic.Kind, scenarios int, window time.Duration) traffic.Config {
	top := ctx.Machine.Spec.Topology
	maxCPUs := top.PhysicalCores()
	if ctx.Machine.Hyperthreading {
		maxCPUs = top.LogicalCPUs()
	}
	cfg := traffic.Config{
		Kind:      kind,
		Seed:      ctx.Seed,
		Scenarios: scenarios,
		Window:    window,
		MaxCPUs:   maxCPUs,
	}
	return cfg.WithDefaults()
}

// TrafficFactories builds the traffic model roster: the paper's two models,
// the two extra open-source families, the F2 reference (its per-core table
// keyed by instance ID through the shared baseline types) and the oracle
// floor. Exported so the campaign service scores the same roster per
// scenario that the batch traffic experiments score per campaign.
func TrafficFactories(scenarios []protocol.Scenario) func(map[string]division.Baseline) []models.Factory {
	return func(baselines map[string]division.Baseline) []models.Factory {
		return append(PaperModels(),
			models.NewKepler(),
			models.NewSmartWatts(models.DefaultSmartWattsConfig()),
			models.NewF2(protocol.InstancePerCore(scenarios, baselines)),
			models.NewOracle(),
		)
	}
}

// TrafficCampaign generates a traffic campaign from cfg and scores it. The
// result carries the recorded trace; rerunning with the same context and
// config yields a bit-identical error table.
func TrafficCampaign(ctx protocol.Context, cfg traffic.Config) (TrafficResult, error) {
	cfg = cfg.WithDefaults()
	scenarios, err := traffic.Generate(cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	res, err := trafficEvaluate(ctx, cfg.Kind.String(), cfg.Window, scenarios)
	if err != nil {
		return TrafficResult{}, err
	}
	res.Trace = traffic.Record(cfg, scenarios)
	return res, nil
}

// TrafficReplay scores a previously recorded trace: same scenarios, same
// per-scenario seeds (they derive from instance IDs), so a replay on the
// same context reproduces the original campaign exactly.
func TrafficReplay(ctx protocol.Context, tr traffic.Trace) (TrafficResult, error) {
	scenarios, err := tr.ProtocolScenarios()
	if err != nil {
		return TrafficResult{}, err
	}
	res, err := trafficEvaluate(ctx, tr.Kind, tr.Window(), scenarios)
	if err != nil {
		return TrafficResult{}, err
	}
	res.Trace = tr
	return res, nil
}

func trafficEvaluate(ctx protocol.Context, kind string, window time.Duration, scenarios []protocol.Scenario) (TrafficResult, error) {
	// Phase 1 keys its baselines by application type, so the map it hands
	// the factories counts the distinct types.
	factories, baselines := TrafficFactories(scenarios), 0
	camp, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.TrafficCampaign, Scenarios: scenarios, Window: window,
		Factories: func(b map[string]division.Baseline) []models.Factory {
			baselines = len(b)
			return factories(b)
		},
	})
	if err != nil {
		return TrafficResult{}, err
	}
	res := TrafficResult{
		Machine:   ctx.Machine.Spec.Name,
		Kind:      kind,
		Scenarios: len(scenarios),
		Baselines: baselines,
		Window:    window,
		Summaries: map[string]protocol.TrafficSummary{},
	}
	for _, s := range scenarios {
		res.Instances += len(s.Apps)
	}
	for m, f := range camp.Factories {
		res.Summaries[f.Name] = protocol.SummarizeTraffic(f.Name, camp.Traffic(m))
	}
	return res, nil
}

// Table renders the per-model traffic error summary.
func (r TrafficResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("traffic campaign — %s arrivals, %d scenarios × %v, %d instances over %d baselines — %s",
			r.Kind, r.Scenarios, r.Window, r.Instances, r.Baselines, r.Machine),
		"model", "mean AE", "max AE", "coverage", "worst scenario",
	)
	names := make([]string, 0, len(r.Summaries))
	for name := range r.Summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Summaries[name]
		t.AddRow(name, scoredPercent(s.MeanAE, s.Scored), scoredPercent(s.MaxAE, s.Scored),
			report.Percent(s.MeanCoverage), truncateLabel(s.WorstScenario, 48))
	}
	return t
}

// scoredPercent renders an error aggregated over scored scenarios, or
// "n/a" when there are none: an unscored model has no error, not a zero
// one.
func scoredPercent(ae float64, scored int) string {
	if scored == 0 {
		return "n/a"
	}
	return report.Percent(ae)
}

// truncateLabel shortens long roster labels for table cells.
func truncateLabel(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max-1] + "…"
}
