// Residual experiment (§IV-B): stress applications capped to 50 % CPU time
// with cgroup-style quotas, pinned one process per core, against uncapped
// ones. Capped cores duty-cycle, so the machine draws less residual power
// when they run alone — residual the division models cannot see, which is
// the paper's Fig 9 finding.
//
// Run with:
//
//	go run ./examples/residual
package main

import (
	"context"
	"fmt"
	"log"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/experiments"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
)

func main() {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), 1)

	// First, show the §IV-B residual observations themselves: a capped
	// stress alone, an uncapped one alone, and both together.
	capped, err := protocol.StressApp("int64", 3)
	if err != nil {
		log.Fatal(err)
	}
	capped.ID = "int64-3-capped"
	capped.CPUQuota = 0.5
	capped.Pinned = []int{0, 1, 2}
	uncapped, err := protocol.StressApp("int64", 3)
	if err != nil {
		log.Fatal(err)
	}
	uncapped.Pinned = []int{3, 4, 5}

	baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{capped, uncapped})
	if err != nil {
		log.Fatal(err)
	}
	bCapped, bUncapped := baselines[capped.ID], baselines[uncapped.ID]
	t := report.NewTable("§IV-B isolated runs on SMALL INTEL", "application", "machine power", "residual (incl. idle)", "active")
	t.AddRow(capped.ID, bCapped.Total.String(), bCapped.Residual.String(), bCapped.Active().String())
	t.AddRow(uncapped.ID, bUncapped.Total.String(), bUncapped.Residual.String(), bUncapped.Active().String())
	fmt.Print(t.String())
	fmt.Println("\nthe capped run produces roughly half the load residual: residual power")
	fmt.Println("is generated by the applications, not a fixed machine property.")

	// Then run the full §IV-B campaign for both models.
	fns := []string{"fibonacci", "queens", "int64", "float64", "jmp", "matrixprod"}
	for _, f := range experiments.PaperModels() {
		res, err := experiments.ResidualCapping(ctx, f, fns, []int{1, 2, 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(res.Table().String())
	}
	fmt.Println("\nagainst residual-aware objectives the models' errors are several times")
	fmt.Println("their uniform-residual campaign error — they allocate residual as if it")
	fmt.Println("were idle consumption and miss its frequency-driven dynamics (challenge C3).")
}
