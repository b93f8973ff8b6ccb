package experiments

import (
	"context"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/units"
)

// FamilyProperties characterises one residual allocation family on one
// pair scenario — the properties §III-B argues distinguish the families.
type FamilyProperties struct {
	Family division.Family
	// Coverage is Σ estimates / C_S: 1 for F1 and F2 (they divide the
	// whole machine power), below 1 for F3 (it leaves R unallocated —
	// the Fig 2 under-coverage).
	Coverage float64
	// RatioDriftPct is how much the estimated consumption ratio of the
	// two applications moves between the laboratory and production
	// contexts, in percent of the lab ratio. F2 keeps the sequential
	// ratio by construction, so its drift is ≈0; F1's drifts because the
	// active shares change when frequency and SMT effects kick in.
	RatioDriftPct float64
}

// FamilyAblation evaluates the three families of §III-B on one stress pair
// run in both contexts — the ablation behind the paper's argument that the
// choice of family is a policy decision with observable consequences.
func FamilyAblation(spec cpumodel.Spec, fn0, fn1 string, threads int, seed int64) ([]FamilyProperties, error) {
	ratioIn := func(ctx protocol.Context) (map[division.Family]float64, map[division.Family]float64, error) {
		a0, err := protocol.StressApp(fn0, threads)
		if err != nil {
			return nil, nil, err
		}
		a1, err := protocol.StressApp(fn1, threads)
		if err != nil {
			return nil, nil, err
		}
		baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{a0, a1})
		if err != nil {
			return nil, nil, err
		}
		bs := []division.Baseline{baselines[a0.ID], baselines[a1.ID]}

		cfg := ctx.Machine
		run, err := machine.Simulate(cfg, []machine.Proc{
			{ID: a0.ID, Workload: a0.Workload, Threads: threads},
			{ID: a1.ID, Workload: a1.Workload, Threads: threads},
		}, 10*time.Second)
		if err != nil {
			return nil, nil, err
		}
		c := units.Watts(run.TruePowerSeries().Mean())
		r := units.Watts(run.ResidualSeries().Mean()) + run.Ticks[0].Idle
		a := c - r

		ratios := map[division.Family]float64{}
		coverage := map[division.Family]float64{}
		for _, fam := range []division.Family{division.F1, division.F2, division.F3} {
			shares, err := division.FamilyShares(fam, bs)
			if err != nil {
				return nil, nil, err
			}
			var est0, est1 units.Watts
			if fam == division.F3 {
				// F3 divides only the active power; R stays unallocated.
				est0 = units.Watts(float64(a) * shares[a0.ID])
				est1 = units.Watts(float64(a) * shares[a1.ID])
			} else {
				est0 = units.Watts(float64(c) * shares[a0.ID])
				est1 = units.Watts(float64(c) * shares[a1.ID])
			}
			coverage[fam] = float64(est0+est1) / float64(c)
			if est1 > 0 {
				ratios[fam] = float64(est0) / float64(est1)
			}
		}
		return ratios, coverage, nil
	}

	labRatios, labCov, err := ratioIn(LabContext(spec, seed))
	if err != nil {
		return nil, err
	}
	prodRatios, _, err := ratioIn(ProdContext(spec, seed))
	if err != nil {
		return nil, err
	}
	var out []FamilyProperties
	for _, fam := range []division.Family{division.F1, division.F2, division.F3} {
		drift := 0.0
		if labRatios[fam] != 0 {
			drift = (prodRatios[fam] - labRatios[fam]) / labRatios[fam] * 100
			if drift < 0 {
				drift = -drift
			}
		}
		out = append(out, FamilyProperties{
			Family:        fam,
			Coverage:      labCov[fam],
			RatioDriftPct: drift,
		})
	}
	return out, nil
}

// AblationTable renders the family ablation.
func AblationTable(props []FamilyProperties) *report.Table {
	t := report.NewTable(
		"Residual allocation families (§III-B)",
		"family", "coverage of C_S", "lab→prod ratio drift %",
	)
	for _, p := range props {
		t.AddRowf(p.Family.String(), p.Coverage, p.RatioDriftPct)
	}
	return t
}

// StableWindowAblation compares Eq 5 scores with and without the paper's
// stable-window selection, on a noisy machine. Returns (withWindow,
// without).
func StableWindowAblation(spec cpumodel.Spec, seed int64) (float64, float64, error) {
	scenarios, err := protocol.StressPairs([]string{"fibonacci", "int64", "matrixprod"}, []int{2})
	if err != nil {
		return 0, 0, err
	}
	run := func(window time.Duration) (float64, error) {
		ctx := LabContext(spec, seed)
		ctx.Machine.NoiseStddev = 2 // exaggerate sensor noise
		ctx.StableWindow = window
		evs, err := evaluateModel(ctx, scenarios, models.NewScaphandre())
		if err != nil {
			return 0, err
		}
		return protocol.Summarize("scaphandre", evs).MeanAE, nil
	}
	with, err := run(10 * time.Second)
	if err != nil {
		return 0, 0, err
	}
	without, err := run(0)
	if err != nil {
		return 0, 0, err
	}
	return with, without, nil
}

// LearningWindowAblation sweeps PowerAPI's learning window and reports
// (meanAE, meanScoredTicks) per window length.
func LearningWindowAblation(spec cpumodel.Spec, windows []time.Duration, seed int64) (map[time.Duration][2]float64, error) {
	scenarios, err := protocol.StressPairs([]string{"fibonacci", "int64", "matrixprod"}, []int{2})
	if err != nil {
		return nil, err
	}
	out := map[time.Duration][2]float64{}
	for _, w := range windows {
		cfg := models.DefaultPowerAPIConfig()
		cfg.LearnWindow = w
		ctx := LabContext(spec, seed)
		evs, err := evaluateModel(ctx, scenarios, models.NewPowerAPI(cfg))
		if err != nil {
			return nil, err
		}
		var ticks float64
		for _, ev := range evs {
			ticks += float64(ev.ScoredTicks)
		}
		out[w] = [2]float64{protocol.Summarize("powerapi", evs).MeanAE, ticks / float64(len(evs))}
	}
	return out, nil
}

// SamplePeriodAblation sweeps the sensor sampling period and reports the
// Scaphandre mean AE per period — the protocol is robust to the sampling
// rate because the workloads are stationary.
func SamplePeriodAblation(spec cpumodel.Spec, periods []time.Duration, seed int64) (map[time.Duration]float64, error) {
	scenarios, err := protocol.StressPairs([]string{"fibonacci", "int64", "matrixprod"}, []int{2})
	if err != nil {
		return nil, err
	}
	out := map[time.Duration]float64{}
	for _, p := range periods {
		ctx := LabContext(spec, seed)
		ctx.Machine.Tick = p
		evs, err := evaluateModel(ctx, scenarios, models.NewScaphandre())
		if err != nil {
			return nil, err
		}
		out[p] = protocol.Summarize("scaphandre", evs).MeanAE
	}
	return out, nil
}

// HTEfficiencyAblation sweeps the SMT efficiency factor and reports the
// Section V total energy drop (colocated vs solo sum) for BUILD2+DACAPO —
// showing how hyperthreading sub-additivity drives the §V context effects.
func HTEfficiencyAblation(spec cpumodel.Spec, factors []float64, seed int64) (map[float64]float64, error) {
	out := map[float64]float64{}
	for _, f := range factors {
		s := spec
		s.Power.SMTEfficiency = f
		cfg := ProdConfig(s, seed)
		res, err := EnergyDivision(cfg, models.NewScaphandre(), "build2", "dacapo", 6, seed)
		if err != nil {
			return nil, err
		}
		out[f] = res.TotalDropPct()
	}
	return out, nil
}

// PowerAPIDeterminismAblation runs the DAHU campaign with PowerAPI's
// calibration instability disabled, isolating how much of its §IV-A error
// the pathology accounts for (with it off, PowerAPI collapses onto the
// CPU-time behaviour of Scaphandre).
func PowerAPIDeterminismAblation(ctx protocol.Context) (withPathology, without float64, err error) {
	scenarios, err := protocol.StressPairs([]string{"fibonacci", "queens", "float64", "matrixprod"}, protocol.SizesFor(ctx.Machine))
	if err != nil {
		return 0, 0, err
	}
	run := func(deterministic bool) (float64, error) {
		cfg := models.DefaultPowerAPIConfig()
		cfg.Deterministic = deterministic
		evs, err := evaluateModel(ctx, scenarios, models.NewPowerAPI(cfg))
		if err != nil {
			return 0, err
		}
		return protocol.Summarize("powerapi", evs).MeanAE, nil
	}
	if withPathology, err = run(false); err != nil {
		return 0, 0, err
	}
	if without, err = run(true); err != nil {
		return 0, 0, err
	}
	return withPathology, without, nil
}
