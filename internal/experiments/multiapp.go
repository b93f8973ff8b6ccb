package experiments

import (
	"fmt"

	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
)

// MultiAppResult compares a model's division accuracy as scenarios grow
// beyond the paper's pairs — the formalism (scenarios S of n applications)
// supports it directly; the evaluation section stops at two.
type MultiAppResult struct {
	Machine string
	Model   string
	// MeanAE maps scenario size (2, 3, …) to the Eq 5 mean over all
	// combinations of distinct stress functions at that size.
	MeanAE map[int]float64
	MaxAE  map[int]float64
	// Scenarios counts the combinations per size.
	Scenarios map[int]int
}

// Table renders the per-size errors.
func (r MultiAppResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("n-application scenarios — %s on %s", r.Model, r.Machine),
		"apps per scenario", "scenarios", "mean AE", "max AE",
	)
	sizes := make([]int, 0, len(r.MeanAE))
	for k := range r.MeanAE {
		sizes = append(sizes, k)
	}
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	for _, k := range sizes {
		t.AddRow(fmt.Sprint(k), fmt.Sprint(r.Scenarios[k]), report.Percent(r.MeanAE[k]), report.Percent(r.MaxAE[k]))
	}
	return t
}

// MultiAppEvaluation runs the protocol over k-way scenarios for each k in
// sizes, at a fixed per-application thread count (choose threads so the
// largest scenario fits: k_max × threads ≤ schedulable CPUs).
func MultiAppEvaluation(ctx protocol.Context, factory models.Factory, fns []string, sizes []int, threads int) (MultiAppResult, error) {
	res := MultiAppResult{
		Machine:   ctx.Machine.Spec.Name,
		Model:     factory.Name,
		MeanAE:    map[int]float64{},
		MaxAE:     map[int]float64{},
		Scenarios: map[int]int{},
	}
	for _, k := range sizes {
		scenarios, err := protocol.StressCombos(fns, threads, k)
		if err != nil {
			return res, err
		}
		evs, err := evaluateModel(ctx, scenarios, factory)
		if err != nil {
			return res, err
		}
		sum := protocol.Summarize(factory.Name, evs)
		res.MeanAE[k] = sum.MeanAE
		res.MaxAE[k] = sum.MaxAE
		res.Scenarios[k] = len(scenarios)
	}
	return res, nil
}
