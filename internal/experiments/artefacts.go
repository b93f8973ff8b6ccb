package experiments

import (
	"fmt"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/energyacct"
	"powerdiv/internal/fleet"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/report"
	"powerdiv/internal/trace"
	"powerdiv/internal/traffic"
	"powerdiv/internal/units"
	"powerdiv/internal/vm"
	"powerdiv/internal/workload"
)

// Artefact is one table or figure of the evaluation: the driver call that
// computes it at a seed and the tables that render the result. The
// report command, the golden corpus and the benchmarks all loop over
// Artefacts(), so each artefact's arguments are written down once.
type Artefact struct {
	// Name identifies the artefact in the golden corpus, in
	// BenchmarkArtefact/<Name> and in powerdiv-report's CSV file names.
	Name string
	// Paper is the paper reference it reproduces ("Fig 8", "§IV-B"), or
	// "extension" / "ablation" for work beyond the paper.
	Paper string
	// Run computes the result at a seed.
	Run func(seed int64) (any, error)
	// Tables renders a result of Run. The first table is the artefact's
	// own; every later one carries a Name that is unique within the
	// artefact.
	Tables func(result any) []*report.Table
}

// artefact adapts a typed driver call and renderer to an Artefact.
func artefact[T any](name, paper string, run func(seed int64) (T, error), tables func(T) []*report.Table) Artefact {
	return Artefact{
		Name:   name,
		Paper:  paper,
		Run:    func(seed int64) (any, error) { return run(seed) },
		Tables: func(v any) []*report.Table { return tables(v.(T)) },
	}
}

// tableOf renders a result with a Table method as its one table.
func tableOf[T interface{ Table() *report.Table }](r T) []*report.Table {
	return []*report.Table{r.Table()}
}

// named sets t's name within its artefact and returns it.
func named(t *report.Table, name string) *report.Table {
	t.Name = name
	return t
}

// Artefacts returns every artefact of the evaluation in paper order, then
// the extensions and ablations.
func Artefacts() []Artefact {
	small, dahu := cpumodel.SmallIntel(), cpumodel.Dahu()
	machines := []struct {
		name string
		spec cpumodel.Spec
	}{{"small-intel", small}, {"dahu", dahu}}
	var out []Artefact
	add := func(a ...Artefact) { out = append(out, a...) }

	for _, m := range machines {
		for _, c := range []struct {
			context, paper string
			config         func(cpumodel.Spec, int64) machine.Config
		}{{"lab", "Fig 1", LabConfig}, {"prod", "Fig 3", ProdConfig}} {
			add(artefact("curve-"+m.name+"-"+c.context, c.paper,
				func(seed int64) (CurveResult, error) { return PowerCurve(c.config(m.spec, seed)) },
				func(r CurveResult) []*report.Table {
					t := r.Table()
					t.Title += fmt.Sprintf("; gap %s, band %s at full load", r.ResidualGap(), r.BandWidthAtFull())
					return []*report.Table{t}
				}))
		}
	}

	add(artefact("eq1-undershoot", "Fig 2",
		func(seed int64) (Eq1Result, error) {
			return Eq1Undershoot(LabConfig(small, seed), "fibonacci", "matrixprod", 3)
		},
		func(r Eq1Result) []*report.Table {
			t := report.NewTable("Eq 1 naive attribution (fibonacci-3 ∥ matrixprod-3, SMALL INTEL lab)", "quantity", "watts")
			t.AddRowf("C pair", float64(r.CPair))
			t.AddRowf("naive Ce(P0)", float64(r.Naive0))
			t.AddRowf("naive Ce(P1)", float64(r.Naive1))
			t.AddRowf("uncovered (=R)", float64(r.Uncovered))
			return []*report.Table{t}
		}))

	for _, m := range machines {
		add(artefact("lab-"+m.name, "Fig 4–7, §IV-A",
			func(seed int64) (map[string]ScatterResult, error) {
				return LabEvaluationStreaming(LabContext(m.spec, seed), models.NewKepler(), models.NewOracle())
			},
			func(results map[string]ScatterResult) []*report.Table {
				tables := []*report.Table{ErrorTable(m.spec.Name, results)}
				for _, name := range sortedKeys(results) {
					tables = append(tables, named(results[name].PointsTable(), "points-"+name))
				}
				return tables
			}))
	}
	for _, m := range machines {
		add(artefact("scatter-prod-scaphandre-"+m.name, "extension",
			func(seed int64) (ScatterResult, error) {
				return RatioScatter(ProdContext(m.spec, seed), models.NewScaphandre())
			}, tableOf[ScatterResult]))
	}

	for _, m := range []struct {
		name    string
		spec    cpumodel.Spec
		threads int
	}{{"small-intel", small, 3}, {"dahu", dahu, 8}} {
		add(artefact("fig8-"+m.name, "Fig 8",
			func(seed int64) (InstabilityResult, error) {
				return Instability(LabConfig(m.spec, seed), "matrixprod", "float64", m.threads, 6, seed+6)
			},
			func(r InstabilityResult) []*report.Table {
				t := r.Table()
				t.Title += fmt.Sprintf("; flip-flopped: %v", r.FlipFlopped())
				return []*report.Table{t}
			}))
	}

	for _, f := range append(PaperModels(), models.NewResidualAwareFromSpec(small)) {
		add(artefact("residual-"+f.Name, "Fig 9, §IV-B",
			func(seed int64) (CappingResult, error) {
				return ResidualCapping(LabContext(small, seed), f, workload.StressNames(), []int{1, 2, 3})
			}, tableOf[CappingResult]))
	}

	add(artefact("table5", "Table V, Fig 10",
		func(seed int64) ([]AppReference, error) {
			return PhoronixReference(ProdConfig(small, seed), 6, 3, seed)
		},
		func(refs []AppReference) []*report.Table {
			labels, series := make([]string, len(refs)), make([]*trace.Series, len(refs))
			for i, r := range refs {
				labels[i], series[i] = r.Name, r.Trace
			}
			tables := []*report.Table{TableV(refs), sparkTable("Fig 10 — solo power signatures", "signatures", labels, series)}
			for _, r := range refs {
				t := named(report.NewTable("Fig 10 trace "+r.Name, "t (s)", "watts"), "trace-"+r.Name)
				for _, s := range r.Trace.Samples() {
					t.AddRowf(s.At.Seconds(), s.Value)
				}
				tables = append(tables, t)
			}
			return tables
		}))

	for _, f := range PaperModels() {
		add(artefact("context-"+f.Name, "Fig 11",
			func(seed int64) (ContextResult, error) {
				return ContextIllustration(LabConfig(small, seed), f, "int64", 2, 20*time.Second, seed)
			}, tableOf[ContextResult]))
	}
	add(artefact("fig11-timeline", "extension",
		func(seed int64) ([]TimelineScore, error) {
			return fig11Timeline(LabContext(small, seed), PaperModels())
		},
		func(rows []TimelineScore) []*report.Table {
			return []*report.Table{timelineTable("Fig 11 timeline — model error and coverage under churn", rows)}
		}))
	add(artefact("smartwatts-timeline", "extension",
		func(seed int64) ([]TimelineScore, error) {
			return fig11Timeline(LabContext(small, seed), []models.Factory{
				models.NewSmartWatts(models.DefaultSmartWattsConfig()),
				models.NewPowerAPI(models.DefaultPowerAPIConfig()),
			})
		},
		func(rows []TimelineScore) []*report.Table {
			return []*report.Table{timelineTable("SmartWatts vs PowerAPI under churn", rows)}
		}))

	for _, pair := range []struct{ name, paper, app0, app1 string }{
		{"energy-division-", "Fig 12, §V-A", "build2", "dacapo"},
		{"energy-division-7zip-cloverleaf-", "Fig 13", "compress-7zip", "cloverleaf"},
	} {
		for _, f := range PaperModels() {
			add(artefact(pair.name+f.Name, pair.paper,
				func(seed int64) (EnergyDivisionResult, error) {
					return EnergyDivision(ProdConfig(small, seed), f, pair.app0, pair.app1, 6, seed)
				},
				func(r EnergyDivisionResult) []*report.Table {
					return []*report.Table{r.Table(), sparkTable("attributed power curves", "curves",
						[]string{r.App0, r.App1}, []*trace.Series{r.Est0, r.Est1})}
				}))
		}
	}
	neighbours := []int{0, 4, 9}
	add(artefact("colocation-sweep", "§V",
		func(seed int64) (map[int]units.Joules, error) {
			return ColocationSweep(ProdConfig(dahu, seed), models.NewScaphandre(), "cloverleaf", 6, neighbours, seed)
		},
		func(sweep map[int]units.Joules) []*report.Table {
			t := report.NewTable("§V — CLOVERLEAF on DAHU vs neighbour VMs (scaphandre)", "neighbour VMs", "attributed energy (kJ)")
			for _, n := range neighbours {
				t.AddRowf(n, sweep[n].Kilojoules())
			}
			return []*report.Table{t}
		}))
	for _, pair := range []struct{ name, app0, app1 string }{
		{"behavior-build2-dacapo", "build2", "dacapo"},
		{"behavior-7zip-cloverleaf", "compress-7zip", "cloverleaf"},
	} {
		add(artefact(pair.name, "§V-A",
			func(seed int64) (BehaviorResult, error) {
				return BehaviorCorrelation(ProdConfig(small, seed), models.NewScaphandre(), pair.app0, pair.app1, 6, seed)
			}, tableOf[BehaviorResult]))
	}
	add(artefact("energy-ledger", "extension",
		func(seed int64) (*energyacct.Ledger, error) {
			return energyLedger(ProdConfig(small, seed), seed)
		},
		func(l *energyacct.Ledger) []*report.Table {
			t := report.NewTable("Energy accounts — build2 ∥ dacapo", "account", "kJ")
			for _, e := range l.Entries() {
				t.AddRowf(e.ID, e.Energy.Kilojoules())
			}
			t.AddRowf("(unattributed)", l.Unattributed().Kilojoules())
			return []*report.Table{t}
		}))
	add(artefact("nested-division", "extension",
		func(seed int64) (vm.NestedTick, error) { return nestedDivision(ProdConfig(small, seed), seed) },
		func(last vm.NestedTick) []*report.Table {
			t := report.NewTable("Nested division — final tick", "account", "watts")
			for _, name := range []string{"vm0", "vm1"} {
				t.AddRowf(name, float64(last.PerVM[name]))
			}
			for _, id := range []string{"vm0/fib", "vm0/mat", "vm1/jmp", "vm1/rand"} {
				t.AddRowf(id, float64(last.PerGuest[id]))
			}
			return []*report.Table{t}
		}))

	add(artefact("profile-f2", "§VI",
		func(seed int64) (ProfileResult, error) { return ProfileF2Evaluation(LabContext(small, seed)) },
		func(r ProfileResult) []*report.Table {
			return []*report.Table{r.Table(), named(r.LOOTable(), "loo")}
		}))
	add(artefact("multiapp", "extension",
		func(seed int64) (MultiAppResult, error) {
			return MultiAppEvaluation(LabContext(small, seed), models.NewScaphandre(), workload.StressNames(), []int{2, 3}, 2)
		}, tableOf[MultiAppResult]))

	add(artefact("ablation-families", "§III-B",
		func(seed int64) ([]FamilyProperties, error) {
			return FamilyAblation(small, "fibonacci", "matrixprod", 3, seed)
		}, func(props []FamilyProperties) []*report.Table { return []*report.Table{AblationTable(props)} }))
	add(artefact("ablation-stable-window", "ablation",
		func(seed int64) ([2]float64, error) {
			with, without, err := StableWindowAblation(small, seed)
			return [2]float64{with, without}, err
		},
		func(r [2]float64) []*report.Table {
			t := report.NewTable("Stable-window scoring under 2 W sensor noise (scaphandre)", "stable window", "mean AE")
			t.AddRow("10 s", report.Percent(r[0]))
			t.AddRow("off", report.Percent(r[1]))
			return []*report.Table{t}
		}))
	windows := []time.Duration{2 * time.Second, 10 * time.Second, 20 * time.Second}
	add(artefact("ablation-learning-window", "ablation",
		func(seed int64) (map[time.Duration][2]float64, error) {
			return LearningWindowAblation(small, windows, seed)
		},
		func(r map[time.Duration][2]float64) []*report.Table {
			t := report.NewTable("PowerAPI learning window", "learn window", "mean AE", "mean scored ticks")
			for _, w := range windows {
				t.AddRowf(w, report.Percent(r[w][0]), r[w][1])
			}
			return []*report.Table{t}
		}))
	periods := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond, time.Second}
	add(artefact("ablation-sample-period", "ablation",
		func(seed int64) (map[time.Duration]float64, error) {
			return SamplePeriodAblation(small, periods, seed)
		},
		func(r map[time.Duration]float64) []*report.Table {
			t := report.NewTable("Sensor sampling period (scaphandre)", "sample period", "mean AE")
			for _, p := range periods {
				t.AddRowf(p, report.Percent(r[p]))
			}
			return []*report.Table{t}
		}))
	factors := []float64{0.2, 0.3, 0.45, 0.6}
	add(artefact("ablation-ht-efficiency", "ablation",
		func(seed int64) (map[float64]float64, error) {
			return HTEfficiencyAblation(small, factors, seed)
		},
		func(r map[float64]float64) []*report.Table {
			t := report.NewTable("SMT efficiency vs §V total energy drop (build2 ∥ dacapo)", "SMT efficiency", "total drop %")
			for _, f := range factors {
				t.AddRowf(f, r[f])
			}
			return []*report.Table{t}
		}))
	add(artefact("ablation-powerapi-determinism", "ablation",
		func(seed int64) ([2]float64, error) {
			with, without, err := PowerAPIDeterminismAblation(LabContext(dahu, seed))
			return [2]float64{with, without}, err
		},
		func(r [2]float64) []*report.Table {
			t := report.NewTable("PowerAPI calibration pathology on DAHU", "calibration", "mean AE")
			t.AddRow("with pathology", report.Percent(r[0]))
			t.AddRow("deterministic", report.Percent(r[1]))
			return []*report.Table{t}
		}))

	for _, tr := range []struct {
		name      string
		kind      traffic.Kind
		scenarios int
		window    time.Duration
	}{{"traffic-poisson", traffic.Poisson, 24, 15 * time.Second}, {"traffic-mixed", traffic.Mixed, 48, 10 * time.Second}} {
		add(artefact(tr.name, "extension",
			func(seed int64) (TrafficResult, error) {
				ctx := LabContext(small, seed)
				return TrafficCampaign(ctx, TrafficConfig(ctx, tr.kind, tr.scenarios, tr.window))
			}, tableOf[TrafficResult]))
	}
	add(artefact("fleet-4-nodes", "extension",
		func(seed int64) (fleet.Result, error) {
			return fleet.Campaign(fleet.Config{
				Nodes:            4,
				Seed:             seed,
				ScenariosPerNode: 1,
				Window:           2 * time.Second,
				RunFor:           3 * time.Second,
				StableWindow:     time.Second,
				Kernels:          []string{"fibonacci", "matrixprod", "queens"},
			}, nil)
		}, func(r fleet.Result) []*report.Table { return []*report.Table{FleetTable(r)} }))
	return out
}

// sparkTable renders one sparkline per series.
func sparkTable(title, name string, labels []string, series []*trace.Series) *report.Table {
	t := named(report.NewTable(title, "series", "shape", "min W", "max W"), name)
	for i, s := range series {
		t.AddRowf(labels[i], report.Spark(s, 60), s.Min(), s.Max())
	}
	return t
}
