// Command powerdiv-report regenerates every table and figure of the
// paper's evaluation in one run and prints them as text tables — the data
// behind EXPERIMENTS.md. With -out it also writes each artefact as CSV.
//
// Usage:
//
//	powerdiv-report [-seed 1] [-out out/] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/experiments"
	"powerdiv/internal/models"
	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/workload"
)

var (
	outDir  = flag.String("out", "", "write CSV artefacts into this directory")
	quick   = flag.Bool("quick", false, "reduced scenario sets (fast smoke run)")
	seed    = flag.Int64("seed", 1, "campaign seed")
	metrics = flag.Bool("metrics", false, "print the internal metrics summary after the run")
)

func main() {
	flag.Parse()
	start := time.Now()
	obs.Enable(*metrics)

	section("Fig 1 & Fig 3 — machine power curves")
	for _, spec := range cpumodel.Specs() {
		for _, prod := range []bool{false, true} {
			cfg := experiments.LabConfig(spec, *seed)
			if prod {
				cfg = experiments.ProdConfig(spec, *seed)
			}
			res, err := experiments.PowerCurve(cfg)
			check(err)
			emit(res.Table(), fmt.Sprintf("curve-%s-%s", slug(spec.Name), ternary(prod, "prod", "lab")))
			fmt.Printf("gap %s, band %s\n\n", res.ResidualGap(), res.BandWidthAtFull())
		}
	}

	section("Fig 2 — Equation 1 under-coverage")
	eq1, err := experiments.Eq1Undershoot(experiments.LabConfig(cpumodel.SmallIntel(), *seed), "fibonacci", "matrixprod", 3)
	check(err)
	t := report.NewTable("Eq 1 naive attribution (fibonacci-3 ∥ matrixprod-3, SMALL INTEL lab)", "quantity", "watts")
	t.AddRowf("C pair", float64(eq1.CPair))
	t.AddRowf("naive Ce(P0)", float64(eq1.Naive0))
	t.AddRowf("naive Ce(P1)", float64(eq1.Naive1))
	t.AddRowf("uncovered (=R)", float64(eq1.Uncovered))
	emit(t, "fig2-eq1")

	section("Fig 4–7 + §IV-A — ratio campaigns")
	for _, spec := range cpumodel.Specs() {
		ctx := experiments.LabContext(spec, *seed)
		results, err := experiments.LabEvaluationStreaming(ctx, models.NewKepler(), models.NewOracle())
		check(err)
		emit(experiments.ErrorTable(spec.Name, results), fmt.Sprintf("errors-%s", slug(spec.Name)))
		if *outDir != "" {
			for name, r := range results {
				check(r.PointsTable().WriteCSV(filepath.Join(*outDir, fmt.Sprintf("points-%s-%s.csv", slug(spec.Name), name))))
			}
		}
		fmt.Println()
	}

	section("Fig 8 — PowerAPI instability on DAHU")
	inst, err := experiments.Instability(experiments.LabConfig(cpumodel.Dahu(), *seed), "matrixprod", "float64", 8, 6, *seed+6)
	check(err)
	emit(inst.Table(), "fig8-instability")
	fmt.Printf("flip-flopped: %v\n\n", inst.FlipFlopped())

	section("Fig 9 + §IV-B — residual consumption as application consumption")
	fns := workload.StressNames()
	if *quick {
		fns = fns[:4]
	}
	fig9Models := append(experiments.PaperModels(), models.NewResidualAwareFromSpec(cpumodel.SmallIntel()))
	for _, f := range fig9Models {
		res, err := experiments.ResidualCapping(experiments.LabContext(cpumodel.SmallIntel(), *seed), f, fns, []int{1, 2, 3})
		check(err)
		emit(res.Table(), fmt.Sprintf("fig9-%s", f.Name))
		fmt.Println()
	}

	section("Table V + Fig 10 — Phoronix references")
	refs, err := experiments.PhoronixReference(experiments.ProdConfig(cpumodel.SmallIntel(), *seed), 6, 3, *seed)
	check(err)
	emit(experiments.TableV(refs), "table5")
	fmt.Println("\nFig 10 — solo power signatures:")
	for _, r := range refs {
		fmt.Println("  " + report.SparkLine(r.Name, r.Trace, 60))
	}
	if *outDir != "" {
		for _, r := range refs {
			ft := report.NewTable("Fig 10 trace "+r.Name, "t (s)", "watts")
			for _, s := range r.Trace.Samples() {
				ft.AddRowf(s.At.Seconds(), s.Value)
			}
			check(ft.WriteCSV(filepath.Join(*outDir, "fig10-"+r.Name+".csv")))
		}
	}
	fmt.Println()

	section("Fig 11 — context-dependent attribution")
	ctxRes, err := experiments.ContextIllustration(experiments.LabConfig(cpumodel.SmallIntel(), *seed), models.NewScaphandre(), "int64", 2, 20*time.Second, *seed)
	check(err)
	emit(ctxRes.Table(), "fig11-context")
	fmt.Println()

	section("Fig 12 & 13 + §V — energy division")
	for _, pair := range [][2]string{{"build2", "dacapo"}, {"compress-7zip", "cloverleaf"}} {
		for _, f := range experiments.PaperModels() {
			res, err := experiments.EnergyDivision(experiments.ProdConfig(cpumodel.SmallIntel(), *seed), f, pair[0], pair[1], 6, *seed)
			check(err)
			emit(res.Table(), fmt.Sprintf("energy-%s-%s-%s", pair[0], pair[1], f.Name))
			if f.Name == "scaphandre" {
				fmt.Println("attributed power curves:")
				fmt.Println("  " + report.SparkLine(pair[0], res.Est0, 60))
				fmt.Println("  " + report.SparkLine(pair[1], res.Est1, 60))
			}
			fmt.Println()
		}
	}
	neighbours := []int{0, 4, 9}
	sweep, err := experiments.ColocationSweep(experiments.ProdConfig(cpumodel.Dahu(), *seed), models.NewScaphandre(), "cloverleaf", 6, neighbours, *seed)
	check(err)
	st := report.NewTable("§V — CLOVERLEAF on DAHU vs neighbour VMs (scaphandre)", "neighbour VMs", "attributed energy (kJ)")
	for _, n := range neighbours {
		st.AddRowf(n, sweep[n].Kilojoules())
	}
	emit(st, "sectionV-colocation")

	section("\nExtensions — §VI future work and beyond")
	prof, err := experiments.ProfileF2Evaluation(experiments.LabContext(cpumodel.SmallIntel(), *seed))
	check(err)
	emit(prof.Table(), "extension-profile-f2")
	fmt.Println()
	multi, err := experiments.MultiAppEvaluation(
		experiments.LabContext(cpumodel.SmallIntel(), *seed),
		models.NewScaphandre(), workload.StressNames(), []int{2, 3}, 2)
	check(err)
	emit(multi.Table(), "extension-multiapp")
	fmt.Println()
	props, err := experiments.FamilyAblation(cpumodel.SmallIntel(), "fibonacci", "matrixprod", 3, *seed)
	check(err)
	emit(experiments.AblationTable(props), "ablation-families")

	if st := protocol.DefaultScope().Stats(); st.Hits+st.Misses > 0 {
		fmt.Printf("\nrun cache: %d hits, %d misses, %d baseline entries\n", st.Hits, st.Misses, st.SummaryEntries)
	}
	if *metrics {
		fmt.Print("\n" + obs.Default().Summary())
	}
	fmt.Printf("all experiments regenerated in %s\n", time.Since(start).Truncate(time.Millisecond))
}

func section(title string) {
	fmt.Printf("==== %s ====\n\n", title)
}

func emit(t *report.Table, name string) {
	fmt.Print(t.String())
	if *outDir != "" {
		check(t.WriteCSV(filepath.Join(*outDir, name+".csv")))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+32)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

func ternary(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}
