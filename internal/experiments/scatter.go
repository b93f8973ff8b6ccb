package experiments

import (
	"context"
	"fmt"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/workload"
)

// ScatterResult is one model's full stress campaign on one machine: the
// ratio scatter points of Fig 4–7 plus the §IV-A error statistics.
type ScatterResult struct {
	Model   string
	Machine string
	// SameSize and DiffSize split the points as the figures' (a)/(b)
	// panels do.
	SameSize []division.RatioPoint
	DiffSize []division.RatioPoint
	// MeanAE / MaxAE are the Eq 5 statistics over all scenarios.
	MeanAE float64
	MaxAE  float64
	// WorstPair is the scenario reaching MaxAE.
	WorstPair string
}

// Diagonality returns the mean absolute deviation |y − x| of all points
// from the ideal y = x line, in ratio-percent units.
func (r ScatterResult) Diagonality() float64 {
	var sum float64
	var n int
	for _, p := range append(append([]division.RatioPoint{}, r.SameSize...), r.DiffSize...) {
		d := p.Y - p.X
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table renders the campaign summary.
func (r ScatterResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ratio campaign — %s on %s", r.Model, r.Machine),
		"metric", "value",
	)
	t.AddRow("scenarios (same size)", fmt.Sprint(len(r.SameSize)))
	t.AddRow("scenarios (diff size)", fmt.Sprint(len(r.DiffSize)))
	t.AddRow("mean AE (Eq 5)", report.Percent(r.MeanAE))
	t.AddRow("max AE", report.Percent(r.MaxAE))
	t.AddRow("worst pair", r.WorstPair)
	t.AddRow("mean |y−x| (ratio pts)", fmt.Sprintf("%.1f", r.Diagonality()))
	return t
}

// PointsTable renders the scatter points (the figures' data series).
func (r ScatterResult) PointsTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ratio points — %s on %s", r.Model, r.Machine),
		"pair", "panel", "x (sequential %)", "y (parallel %)",
	)
	for _, p := range r.SameSize {
		t.AddRowf(p.Label, "same-size", p.X, p.Y)
	}
	for _, p := range r.DiffSize {
		t.AddRowf(p.Label, "diff-size", p.X, p.Y)
	}
	return t
}

// scatterFromEvaluations folds per-scenario evaluations into a ScatterResult.
func scatterFromEvaluations(model, machineName string, evs []protocol.Evaluation) ScatterResult {
	res := ScatterResult{Model: model, Machine: machineName}
	sum := protocol.Summarize(model, evs)
	res.MeanAE, res.MaxAE, res.WorstPair = sum.MeanAE, sum.MaxAE, sum.WorstScenario
	same := 0
	for _, ev := range evs {
		if ev.Scenario.SameSize() {
			same++
		}
	}
	if same > 0 {
		res.SameSize = make([]division.RatioPoint, 0, same)
	}
	if diff := len(evs) - same; diff > 0 {
		res.DiffSize = make([]division.RatioPoint, 0, diff)
	}
	for _, ev := range evs {
		if ev.Scenario.SameSize() {
			res.SameSize = append(res.SameSize, ev.Point)
		} else {
			res.DiffSize = append(res.DiffSize, ev.Point)
		}
	}
	return res
}

// RatioScatter runs the Fig 4–7 campaign: every stress pair at the
// machine's size ladder, one model, Eq 3 objective.
func RatioScatter(ctx protocol.Context, factory models.Factory) (ScatterResult, error) {
	scenarios, err := protocol.StressPairs(stressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		return ScatterResult{}, err
	}
	evs, err := evaluateModel(ctx, scenarios, factory)
	if err != nil {
		return ScatterResult{}, err
	}
	return scatterFromEvaluations(factory.Name, ctx.Machine.Spec.Name, evs), nil
}

// evaluateModel runs a pair campaign for one model against the Eq 3
// objective, phase 1 included, and returns its rows in scenario order.
func evaluateModel(ctx protocol.Context, scenarios []protocol.Scenario, f models.Factory) ([]protocol.Evaluation, error) {
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: scenarios, Factories: protocol.FixedFactories(f),
	})
	if err != nil {
		return nil, err
	}
	return res.Pairs(0, 0), nil
}

// LabEvaluationStreaming reproduces the §IV-A error table: all paper
// models (plus any extras passed in) on one machine's stress campaign,
// sharing the phase 1 baselines. Each scenario is simulated once and
// observed by every model in the same pass, never materialized. It returns
// one ScatterResult per model, keyed by model name.
func LabEvaluationStreaming(ctx protocol.Context, extra ...models.Factory) (map[string]ScatterResult, error) {
	res, err := labRows(ctx, extra...)
	if err != nil {
		return nil, err
	}
	out := map[string]ScatterResult{}
	for m, f := range res.Factories {
		out[f.Name] = scatterFromEvaluations(f.Name, ctx.Machine.Spec.Name, res.Pairs(m, 0))
	}
	return out, nil
}

// labRows is the §IV-A campaign behind LabEvaluationStreaming: the paper
// models, extra and F2 over every stress pair, scored against Eq 3.
func labRows(ctx protocol.Context, extra ...models.Factory) (protocol.Result, error) {
	scenarios, err := protocol.StressPairs(stressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		return protocol.Result{}, err
	}
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		fs := append(PaperModels(), extra...)
		return append(fs, models.NewF2(protocol.InstancePerCore(scenarios, baselines)))
	}
	return protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: scenarios, Factories: factories,
	})
}

// ErrorTable renders the §IV-A summary across models.
func ErrorTable(machineName string, results map[string]ScatterResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§IV-A model error summary — %s", machineName),
		"model", "mean AE", "max AE", "worst pair",
	)
	for _, name := range sortedKeys(results) {
		r := results[name]
		t.AddRow(name, report.Percent(r.MeanAE), report.Percent(r.MaxAE), r.WorstPair)
	}
	return t
}

func sortedKeys(m map[string]ScatterResult) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func stressNames() []string {
	return workload.StressNames()
}
