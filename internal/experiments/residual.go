package experiments

import (
	"context"
	"fmt"

	"powerdiv/internal/division"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/units"
)

// CappingStats aggregates one objective's scores over the capped-vs-uncapped
// campaign.
type CappingStats struct {
	MeanAE float64
	MaxAE  float64
	// MeanAEDiffSizeOnly excludes same-thread-count pairs, which §IV-B
	// notes hide most of the error ("by removing them from the evaluation
	// set, the average error rate increases to 11.3%").
	MeanAEDiffSizeOnly float64
	Points             []division.RatioPoint
}

// CappingResult is the §IV-B experiment for one model: stress functions
// capped to 50 % CPU time (cgroup-style, pinned one process per core) run
// against uncapped ones. The capped processes keep their cores at a lower
// effective duty, producing less residual when isolated — residual the
// models cannot see.
type CappingResult struct {
	Machine string
	Model   string
	// R0 is the machine's nominal-frequency residual (idle included), the
	// Fig 9b reference.
	R0 units.Watts
	// ResidualAware scores against the Fig 9a objective (residual deltas
	// allocated to the application causing them).
	ResidualAware CappingStats
	// NominalR0 scores against the Fig 9b objective (C_{P_i} − R0 ratios).
	NominalR0 CappingStats
}

// Table renders the §IV-B summary for the model.
func (r CappingResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§IV-B residual experiment — %s on %s (R0 = %s)", r.Model, r.Machine, r.R0),
		"objective", "mean AE", "max AE", "mean AE (diff sizes only)",
	)
	t.AddRow("residual-aware (Fig 9a)",
		report.Percent(r.ResidualAware.MeanAE),
		report.Percent(r.ResidualAware.MaxAE),
		report.Percent(r.ResidualAware.MeanAEDiffSizeOnly))
	t.AddRow("nominal-residual (Fig 9b)",
		report.Percent(r.NominalR0.MeanAE),
		report.Percent(r.NominalR0.MaxAE),
		report.Percent(r.NominalR0.MeanAEDiffSizeOnly))
	return t
}

// cappingApp builds one §IV-B application: a stress function at a size,
// optionally capped to 50 % CPU time, pinned one thread per core starting
// at the given core (the paper pins "one process per core" to prevent
// context switching).
func cappingApp(fn string, threads int, capped bool, firstCore int) (protocol.AppSpec, error) {
	app, err := protocol.StressApp(fn, threads)
	if err != nil {
		return app, err
	}
	if capped {
		app.ID = fmt.Sprintf("%s-%d-capped", fn, threads)
		app.CPUQuota = 0.5
	}
	app.Pinned = pinRange(firstCore, threads)
	return app, nil
}

// CappingScenarios builds the §IV-B scenario list: every unordered pair
// drawn from the union of capped and uncapped stress applications across
// the given sizes — capped-vs-uncapped pairs (where the isolated residuals
// differ), plus capped-vs-capped and uncapped-vs-uncapped pairs, as in the
// paper's evaluation set ("these rates are primarily due to applications
// of the same size"). Pairs whose pinned cores would overflow the machine
// are skipped.
func CappingScenarios(fns []string, sizes []int, maxCores int) ([]protocol.Scenario, error) {
	type appKey struct {
		fn     string
		size   int
		capped bool
	}
	var keys []appKey
	for _, fn := range fns {
		for _, n := range sizes {
			keys = append(keys, appKey{fn, n, false}, appKey{fn, n, true})
		}
	}
	var out []protocol.Scenario
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			a, b := keys[i], keys[j]
			if a.size+b.size > maxCores {
				continue
			}
			// Skip the degenerate pairing of an application with itself.
			if a.fn == b.fn && a.size == b.size && a.capped == b.capped {
				continue
			}
			app0, err := cappingApp(a.fn, a.size, a.capped, 0)
			if err != nil {
				return nil, err
			}
			app1, err := cappingApp(b.fn, b.size, b.capped, a.size)
			if err != nil {
				return nil, err
			}
			if app0.ID == app1.ID {
				continue
			}
			out = append(out, protocol.Scenario{Apps: []protocol.AppSpec{app0, app1}})
		}
	}
	return out, nil
}

func pinRange(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// ResidualCapping runs the §IV-B experiment for one model. The scenario
// list pairs each capped function/size with each uncapped function/size
// subject to the machine's core budget.
func ResidualCapping(ctx protocol.Context, factory models.Factory, fns []string, sizes []int) (CappingResult, error) {
	res := CappingResult{Machine: ctx.Machine.Spec.Name, Model: factory.Name}

	// R0: residual at the machine's minimum frequency, plus idle — the
	// paper's "residual consumption of the machine at nominal frequency".
	res.R0 = ctx.Machine.Spec.Power.Idle + ctx.Machine.Spec.Power.Residual.At(ctx.Machine.Spec.Freq.Min)

	maxCores := ctx.Machine.Spec.Topology.PhysicalCores()
	if ctx.Machine.Hyperthreading {
		maxCores = ctx.Machine.Spec.Topology.LogicalCPUs()
	}
	scenarios, err := CappingScenarios(fns, sizes, maxCores)
	if err != nil {
		return res, err
	}
	objectives := []protocol.Objective{protocol.ObjectiveResidualAware, protocol.ObjectiveNominalResidual}
	camp, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: scenarios, Factories: protocol.FixedFactories(factory),
		Objectives: objectives, R0: res.R0,
	})
	if err != nil {
		return res, err
	}
	stats := make([]CappingStats, len(objectives))
	for i := range objectives {
		var all, diffSize protocol.AEFold
		for _, ev := range camp.Pairs(0, i) {
			all.Add(ev.AE, 0, true)
			stats[i].Points = append(stats[i].Points, ev.Point)
			if !ev.Scenario.SameSize() {
				diffSize.Add(ev.AE, 0, true)
			}
		}
		stats[i].MeanAE, stats[i].MaxAE, stats[i].MeanAEDiffSizeOnly = all.MeanAE(), all.MaxAE(), diffSize.MeanAE()
	}
	res.ResidualAware, res.NominalR0 = stats[0], stats[1]
	return res, nil
}
