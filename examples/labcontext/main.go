// Laboratory evaluation: the §IV-A campaign on SMALL INTEL — all stress
// pairs, Scaphandre and PowerAPI, Equation 5 scores and the Fig 4/5 ratio
// points for the worst pairs.
//
// Run with:
//
//	go run ./examples/labcontext
package main

import (
	"fmt"
	"log"
	"sort"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/experiments"
	"powerdiv/internal/report"
)

func main() {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), 1)
	fmt.Println("running the full §IV-A campaign on SMALL INTEL (lab context)…")

	results, err := experiments.LabEvaluationStreaming(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(experiments.ErrorTable("SMALL INTEL", results).String())

	// Show the five farthest-off ratio points of the Scaphandre campaign —
	// the pairs Fig 4 shows farthest from the y = x diagonal.
	sc := results["scaphandre"]
	points := append(sc.SameSize, sc.DiffSize...)
	sort.Slice(points, func(i, j int) bool {
		di := abs(points[i].Y - points[i].X)
		dj := abs(points[j].Y - points[j].X)
		return di > dj
	})
	t := report.NewTable("\nFig 4 — points farthest from y = x (scaphandre)", "pair", "sequential ratio", "parallel ratio")
	for i := 0; i < 5 && i < len(points); i++ {
		t.AddRowf(points[i].Label, points[i].X, points[i].Y)
	}
	fmt.Print(t.String())
	fmt.Println("\nthe paper's observation: both models treat same-thread-count applications")
	fmt.Println("as equal consumers, so the estimated ratio collapses to ≈0 while the")
	fmt.Println("objective ratio reflects the instruction-cost spread (max ≈11.7 %).")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
