// Custom workloads and dynamic contexts: define your own application with
// the workload builder, measure its baseline, and evaluate a power
// division model under arrivals and departures (the paper's Fig 11
// production setting) — including the estimate-coverage cost of PowerAPI's
// per-context relearning.
//
// Run with:
//
//	go run ./examples/customworkload
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/experiments"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/workload"
)

func main() {
	// A user-defined application: a periodic ETL job — a parallel extract
	// phase, then a serial transform tail.
	etl, err := workload.NewBuilder("etl-job").
		Description("periodic extract-transform job").
		Cost("SMALL INTEL", 6.2).
		Mix(1.6, 4.0, 180).
		Phase(20*time.Second, 3, 1.0, 1.0).
		Phase(10*time.Second, 1, 0.8, 0.9).
		Repeat(4).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	ctx := experiments.LabContext(cpumodel.SmallIntel(), 1)

	// Phase 1 works for custom workloads exactly as for the built-ins.
	app := protocol.AppSpec{ID: "etl-job", Workload: etl, Threads: 3}
	webApp, err := protocol.StressApp("rand", 2)
	if err != nil {
		log.Fatal(err)
	}
	webApp.ID = "web"
	batch, err := protocol.StressApp("matrixprod", 1)
	if err != nil {
		log.Fatal(err)
	}
	batch.ID = "batch"
	baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{app, webApp, batch})
	if err != nil {
		log.Fatal(err)
	}
	bt := report.NewTable("Phase 1 — isolated baselines", "application", "machine power", "active", "cores")
	for _, id := range []string{"etl-job", "web", "batch"} {
		b := baselines[id]
		bt.AddRowf(id, float64(b.Total), float64(b.Active()), b.Cores)
	}
	fmt.Print(bt.String())

	// A dynamic timeline: the web app runs throughout, the ETL job comes
	// and goes, a batch job appears at the end.
	etlRun, batchRun := app, batch
	etlRun.StartAt, etlRun.StopAt = 30*time.Second, 90*time.Second
	batchRun.StartAt = 90 * time.Second
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind:      protocol.TimelineCampaign,
		Scenarios: []protocol.Scenario{{Apps: []protocol.AppSpec{webApp, etlRun, batchRun}}},
		Factories: protocol.FixedFactories(experiments.PaperModels()...),
		Baselines: baselines,
		Window:    2 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	tt := report.NewTable("\nDynamic context (Fig 11 setting) — error and coverage", "model", "AE (Eq 5)", "coverage")
	for m, f := range res.Factories {
		ev := res.Traffic(m)[0]
		tt.AddRow(f.Name, report.Percent(ev.AE), report.Percent(ev.Coverage))
	}
	fmt.Print(tt.String())
	fmt.Println("\nPowerAPI loses estimate coverage at every context change (its learning")
	fmt.Println("window restarts), while CPU-time division stays blind to instruction")
	fmt.Println("costs at full coverage — the trade-off the protocol makes measurable.")
}
