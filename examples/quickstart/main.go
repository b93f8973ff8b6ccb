// Quickstart: simulate two applications on the paper's SMALL INTEL
// machine, divide the measured power with a Scaphandre-style model, and
// score the division against the protocol's objective value.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
)

func main() {
	// A simulated 6-core Xeon with hyperthreading and turbo disabled —
	// the paper's "laboratory" context.
	ctx := protocol.DefaultContext(machine.Config{
		Spec:        cpumodel.SmallIntel(),
		NoiseStddev: 0.25,
		Seed:        42,
	})

	// Two stress applications, 3 threads each: the least power-hungry
	// function (fibonacci) against the most (matrixprod).
	fib, err := protocol.StressApp("fibonacci", 3)
	if err != nil {
		log.Fatal(err)
	}
	mat, err := protocol.StressApp("matrixprod", 3)
	if err != nil {
		log.Fatal(err)
	}
	scenario := protocol.Scenario{Apps: []protocol.AppSpec{fib, mat}}

	// Protocol phase 1: measure each application alone.
	baselines, err := protocol.Measure(context.Background(), ctx, scenario.Apps)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []string{fib.ID, mat.ID} {
		b := baselines[id]
		fmt.Printf("%-14s isolated: machine %s, active %s\n", id, b.Total, b.Active())
	}

	// Phases 2–3: run them together, let the model divide the power, and
	// score it with the paper's Equation 5.
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind:      protocol.PairCampaign,
		Scenarios: []protocol.Scenario{scenario},
		Factories: protocol.FixedFactories(models.NewScaphandre()),
		Baselines: baselines,
	})
	if err != nil {
		log.Fatal(err)
	}
	ev := res.Pairs(0, 0)[0]

	t := report.NewTable("\nScaphandre division vs objective value", "application", "true share", "estimated share")
	for a, app := range ev.Scenario.Apps {
		t.AddRow(app.ID, report.Percent(ev.Truth[a]), report.Percent(ev.EstShare[a]))
	}
	fmt.Print(t.String())
	fmt.Printf("\nabsolute error (Eq 5): %s — the model splits equal CPU time 50/50\n", report.Percent(ev.AE))
	fmt.Println("and misses the instruction-cost difference the objective captures.")
}
