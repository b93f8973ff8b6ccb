package experiments

import (
	"fmt"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/report"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// CurvePoint is one point of the Fig 1 / Fig 3 machine power curves: the
// minimum and maximum mean power observed across the stress functions at a
// given CPU load.
type CurvePoint struct {
	// Threads is the number of busy threads (0 = idle machine).
	Threads int
	// LoadPct is the load relative to the schedulable CPUs (the figures'
	// x axis).
	LoadPct float64
	// MinPower and MaxPower bound the band across stress functions.
	MinPower, MaxPower units.Watts
}

// CurveResult is a full load sweep on one machine configuration.
type CurveResult struct {
	Machine        string
	Hyperthreading bool
	Turbo          bool
	Points         []CurvePoint
}

// PowerCurve reproduces the Fig 1 (lab) / Fig 3 (production) measurement:
// every stress function of Table III is run with 0..N threads and the
// min/max mean power per load level is recorded. N is the number of
// schedulable CPUs (physical cores in the lab context, logical CPUs with
// hyperthreading).
func PowerCurve(cfg machine.Config) (CurveResult, error) {
	res := CurveResult{
		Machine:        cfg.Spec.Name,
		Hyperthreading: cfg.Hyperthreading,
		Turbo:          cfg.Turbo,
	}
	n := cfg.Spec.Topology.PhysicalCores()
	if cfg.Hyperthreading {
		n = cfg.Spec.Topology.LogicalCPUs()
	}
	const runFor = 3 * time.Second
	idle, err := stressRun(cfg, nil, runFor)
	if err != nil {
		return res, err
	}
	idleP := units.Watts(idle.TruePowerSeries().Mean())
	res.Points = append(res.Points, CurvePoint{Threads: 0, LoadPct: 0, MinPower: idleP, MaxPower: idleP})

	for threads := 1; threads <= n; threads++ {
		var minP, maxP units.Watts
		first := true
		for _, w := range workload.StressSet() {
			run, err := stressRun(cfg, []machine.Proc{{
				ID: w.Name, Workload: w, Threads: threads,
			}}, runFor)
			if err != nil {
				return res, fmt.Errorf("curve %s ×%d: %w", w.Name, threads, err)
			}
			p := units.Watts(run.TruePowerSeries().Mean())
			if first || p < minP {
				minP = p
			}
			if first || p > maxP {
				maxP = p
			}
			first = false
		}
		res.Points = append(res.Points, CurvePoint{
			Threads:  threads,
			LoadPct:  float64(threads) / float64(n) * 100,
			MinPower: minP,
			MaxPower: maxP,
		})
	}
	return res, nil
}

// BandWidthAtFull returns the max−min spread at 100 % load — the paper
// reports ≈25 W on DAHU ("more than 10% of its maximum power consumption").
func (r CurveResult) BandWidthAtFull() units.Watts {
	if len(r.Points) == 0 {
		return 0
	}
	last := r.Points[len(r.Points)-1]
	return last.MaxPower - last.MinPower
}

// ResidualGap returns the idle→one-thread jump of the max curve — the
// paper's headline observation (≈81 W on DAHU, ≈22–28 W on SMALL INTEL).
func (r CurveResult) ResidualGap() units.Watts {
	if len(r.Points) < 2 {
		return 0
	}
	return r.Points[1].MaxPower - r.Points[0].MaxPower
}

// Table renders the curve as a report table.
func (r CurveResult) Table() *report.Table {
	mode := "HT/TB off (Fig 1)"
	if r.Hyperthreading || r.Turbo {
		mode = "HT/TB on (Fig 3)"
	}
	t := report.NewTable(
		fmt.Sprintf("Power curve — %s, %s", r.Machine, mode),
		"threads", "load %", "min W", "max W",
	)
	for _, p := range r.Points {
		t.AddRowf(p.Threads, p.LoadPct, float64(p.MinPower), float64(p.MaxPower))
	}
	return t
}

// Eq1Result quantifies Fig 2: applying the naive Equation 1 definition to
// a parallel pair under-covers the machine power by exactly the residual.
type Eq1Result struct {
	// CPair is the machine power of P0 ∥ P1.
	CPair units.Watts
	// CSolo0 and CSolo1 are the solo machine powers.
	CSolo0, CSolo1 units.Watts
	// Naive0 and Naive1 are the Eq 1 estimates Ce = C_S − C_{S/P_i}.
	Naive0, Naive1 units.Watts
	// Residual is the ground-truth residual (idle included) of the pair
	// run; Uncovered = CPair − Naive0 − Naive1 should equal it.
	Residual  units.Watts
	Uncovered units.Watts
}

// Eq1Undershoot runs two stress applications solo and in parallel on the
// lab-context machine and evaluates the naive Equation 1 attribution.
func Eq1Undershoot(cfg machine.Config, fn0, fn1 string, threads int) (Eq1Result, error) {
	var res Eq1Result
	w0, ok := workload.StressByName(fn0)
	if !ok {
		return res, fmt.Errorf("unknown stress function %q", fn0)
	}
	w1, ok := workload.StressByName(fn1)
	if !ok {
		return res, fmt.Errorf("unknown stress function %q", fn1)
	}
	const runFor = 5 * time.Second
	solo0, err := stressRun(cfg, []machine.Proc{{ID: "p0", Workload: w0, Threads: threads}}, runFor)
	if err != nil {
		return res, err
	}
	solo1, err := stressRun(cfg, []machine.Proc{{ID: "p1", Workload: w1, Threads: threads}}, runFor)
	if err != nil {
		return res, err
	}
	pair, err := stressRun(cfg, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: threads},
		{ID: "p1", Workload: w1, Threads: threads},
	}, runFor)
	if err != nil {
		return res, err
	}
	res.CPair = units.Watts(pair.TruePowerSeries().Mean())
	res.CSolo0 = units.Watts(solo0.TruePowerSeries().Mean())
	res.CSolo1 = units.Watts(solo1.TruePowerSeries().Mean())
	// C_{S/P0} is the scenario without P0, i.e. P1 alone.
	res.Naive0 = division.NaiveEstimate(res.CPair, res.CSolo1)
	res.Naive1 = division.NaiveEstimate(res.CPair, res.CSolo0)
	res.Residual = units.Watts(pair.ResidualSeries().Mean()) + units.Watts(pair.Ticks[0].Idle)
	res.Uncovered = res.CPair - res.Naive0 - res.Naive1
	return res, nil
}
