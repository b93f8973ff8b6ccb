package experiments

import (
	"context"
	"fmt"
	"sort"

	"powerdiv/internal/isoest"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
)

// ProfileResult is the evaluation of the paper's §VI proposal: a
// profile-driven isolated-consumption estimator and the F2 division model
// built on it.
type ProfileResult struct {
	Machine string
	// TrainError is the in-sample mean relative error of the per-core
	// power predictions.
	TrainError float64
	// LeaveOneOut maps workload → held-out prediction error.
	LeaveOneOut map[string]float64
	// ProfileF2 and Scaphandre are the campaign results of the
	// profile-driven F2 model and the CPU-time baseline on the same
	// scenarios.
	ProfileF2  ScatterResult
	Scaphandre ScatterResult
}

// MeanLOO returns the mean leave-one-out prediction error.
func (r ProfileResult) MeanLOO() float64 {
	if len(r.LeaveOneOut) == 0 {
		return 0
	}
	var sum float64
	for _, e := range r.LeaveOneOut {
		sum += e
	}
	return sum / float64(len(r.LeaveOneOut))
}

// Table renders the evaluation summary.
func (r ProfileResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§VI profile-based F2 — %s", r.Machine),
		"metric", "value",
	)
	t.AddRow("train error (per-core power)", report.Percent(r.TrainError))
	t.AddRow("leave-one-out error", report.Percent(r.MeanLOO()))
	t.AddRow("profile-F2 campaign mean AE", report.Percent(r.ProfileF2.MeanAE))
	t.AddRow("profile-F2 campaign max AE", report.Percent(r.ProfileF2.MaxAE))
	t.AddRow("scaphandre campaign mean AE", report.Percent(r.Scaphandre.MeanAE))
	t.AddRow("scaphandre campaign max AE", report.Percent(r.Scaphandre.MaxAE))
	return t
}

// LOOTable renders the per-workload leave-one-out errors.
func (r ProfileResult) LOOTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§VI leave-one-out prediction error — %s", r.Machine),
		"workload", "relative error",
	)
	names := make([]string, 0, len(r.LeaveOneOut))
	for n := range r.LeaveOneOut {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.AddRow(n, report.Percent(r.LeaveOneOut[n]))
	}
	return t
}

// CollectProfileTraining runs each stress function alone (protocol
// phase 1, instrumented) and extracts its training sample: counter rates
// per core-second and isolated active power per core, both over the
// stable window.
func CollectProfileTraining(ctx protocol.Context, fns []string, threads int) ([]isoest.Sample, error) {
	var out []isoest.Sample
	for _, fn := range fns {
		app, err := protocol.StressApp(fn, threads)
		if err != nil {
			return nil, err
		}
		baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{app})
		if err != nil {
			return nil, err
		}
		// Aggregate counters and CPU time over the whole solo run, tick by
		// tick; the loads are stationary, so rates equal the stable-window
		// rates. Neither depends on the noise seed, so the walk runs under
		// ctx's machine config as is.
		var counters perfcnt.Counters
		var cpuSeconds float64
		solo := []machine.Proc{{ID: app.ID, Workload: app.Workload, Threads: app.Threads}}
		err = machine.Stream(ctx.Machine, solo, ctx.RunFor, func(seg *machine.Segment) error {
			if pt := seg.Rec.Procs[0]; pt.Present() {
				for range seg.Powers {
					counters = counters.Add(pt.Counters)
					cpuSeconds += pt.CPUTime.Seconds()
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuSeconds <= 0 {
			return nil, fmt.Errorf("experiments: %s consumed no CPU", fn)
		}
		out = append(out, isoest.Sample{
			Workload:      fn,
			Rates:         counters.Scale(1 / cpuSeconds),
			ActivePerCore: baselines[app.ID].ActivePerCore(),
		})
	}
	return out, nil
}

// ProfileF2Evaluation implements the §VI evaluation: train the estimator
// on solo profiles of all stress functions, then run the full §IV-A
// campaign with the profile-driven F2 model, against the Scaphandre
// baseline on the identical scenarios.
func ProfileF2Evaluation(ctx protocol.Context) (ProfileResult, error) {
	res := ProfileResult{Machine: ctx.Machine.Spec.Name}
	samples, err := CollectProfileTraining(ctx, stressNames(), 2)
	if err != nil {
		return res, err
	}
	est, err := isoest.Train(samples)
	if err != nil {
		return res, err
	}
	res.TrainError = est.Evaluate(samples)
	if res.LeaveOneOut, err = isoest.LeaveOneOut(samples); err != nil {
		return res, err
	}

	scenarios, err := protocol.StressPairs(stressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		return res, err
	}
	profEvs, err := evaluateModel(ctx, scenarios, isoest.NewProfileF2(est))
	if err != nil {
		return res, err
	}
	res.ProfileF2 = scatterFromEvaluations("profile-f2", res.Machine, profEvs)
	scEvs, err := evaluateModel(ctx, scenarios, models.NewScaphandre())
	if err != nil {
		return res, err
	}
	res.Scaphandre = scatterFromEvaluations("scaphandre", res.Machine, scEvs)
	return res, nil
}
