// Package isoest implements the paper's proposed future work (§VI): an
// estimator of the power an application *would* consume if executed alone
// on a given machine, built from its execution profile (the number and
// type of instructions it retires). The paper proposes exactly this as the
// way to construct a power division model of the second family (F2): use
// per-application isolated estimates to compute the ratio by which the
// actual machine consumption is allocated.
//
// The estimator is a ridge regression from per-core-second counter rates
// (cycles, instructions, cache references, branches) to isolated active
// power per core, trained on instrumented solo runs of a reference
// workload set. Its accuracy is bounded by how much of the power variance
// the instruction mix explains (R² ≈ 0.5 on the built-in calibration —
// see the leave-one-out evaluation in the experiments); even so, the F2
// model it drives beats CPU-time division, which explains none of it.
package isoest

import (
	"fmt"
	"math"

	"powerdiv/internal/models"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// Sample is one training observation from an instrumented solo run.
type Sample struct {
	// Workload labels the sample (for leave-one-out evaluation).
	Workload string
	// Rates are the counter rates per core-second of CPU time.
	Rates perfcnt.Counters
	// ActivePerCore is the measured isolated active power per fully busy
	// core.
	ActivePerCore units.Watts
}

// Estimator predicts isolated active power per core from counter rates.
type Estimator struct {
	weights [4]float64
	scales  [4]float64
}

// Train fits the estimator. It needs at least two samples with distinct
// rate vectors.
func Train(samples []Sample) (*Estimator, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("isoest: need ≥2 training samples, have %d", len(samples))
	}
	rows := make([][4]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		if s.ActivePerCore <= 0 {
			return nil, fmt.Errorf("isoest: sample %q has non-positive power", s.Workload)
		}
		rows[i] = s.Rates.Vector()
		y[i] = float64(s.ActivePerCore)
	}
	w, sc := models.RidgeFit4(rows, y, 1e-6)
	allZero := true
	for _, v := range w {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		return nil, fmt.Errorf("isoest: degenerate fit (identical training rates?)")
	}
	return &Estimator{weights: w, scales: sc}, nil
}

// Estimate predicts the isolated active power per core for the given
// counter rates, floored at a small positive value so that division
// weights stay usable.
func (e *Estimator) Estimate(rates perfcnt.Counters) units.Watts {
	v := rates.Vector()
	var p float64
	for d := range v {
		p += e.weights[d] * v[d] / e.scales[d]
	}
	if p < 0.1 {
		p = 0.1
	}
	return units.Watts(p)
}

// Evaluate scores the estimator on labelled samples and returns the mean
// absolute relative error of the per-core power predictions.
func (e *Estimator) Evaluate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		pred := float64(e.Estimate(s.Rates))
		sum += math.Abs(pred-float64(s.ActivePerCore)) / float64(s.ActivePerCore)
	}
	return sum / float64(len(samples))
}

// LeaveOneOut trains on all samples but the held-out workload and returns
// the held-out prediction error per workload — the honest accuracy of the
// profile-based approach on unseen applications.
func LeaveOneOut(samples []Sample) (map[string]float64, error) {
	out := map[string]float64{}
	for _, held := range samples {
		var train []Sample
		for _, s := range samples {
			if s.Workload != held.Workload {
				train = append(train, s)
			}
		}
		e, err := Train(train)
		if err != nil {
			return nil, fmt.Errorf("isoest: leave-out %s: %w", held.Workload, err)
		}
		pred := float64(e.Estimate(held.Rates))
		out[held.Workload] = math.Abs(pred-float64(held.ActivePerCore)) / float64(held.ActivePerCore)
	}
	return out, nil
}

// ProfileF2 is the deployable F2 model the paper sketches: each tick it
// divides the measured machine power among processes in proportion to
//
//	Estimate(process counter rates per core) × cores of CPU used
//
// — the predicted isolated consumption ratio. Unlike models.F2 it needs no
// per-process baselines, only the trained estimator, so it works for
// applications never seen in phase 1.
type ProfileF2 struct {
	est *Estimator
}

// NewProfileF2 returns a profile-driven F2 factory.
func NewProfileF2(est *Estimator) models.Factory {
	return models.Factory{
		Name: "profile-f2",
		New:  func(int64) models.Model { return &ProfileF2{est: est} },
	}
}

// Name returns "profile-f2".
func (m *ProfileF2) Name() string { return "profile-f2" }

// Observe divides the tick's power by predicted-isolated-consumption share.
func (m *ProfileF2) Observe(t models.Tick) map[string]units.Watts {
	weights := make(map[string]float64, len(t.Samples))
	for slot, p := range t.Samples {
		if !p.Present() {
			continue
		}
		id := t.Roster.ID(slot)
		cores := p.CPUTime.Seconds() / t.Interval.Seconds()
		if cores <= 0 {
			weights[id] = 0
			continue
		}
		// Per-core rates: counters normalised by CPU time consumed.
		rates := p.Counters.Scale(1 / p.CPUTime.Seconds())
		weights[id] = float64(m.est.Estimate(rates)) * cores
	}
	return models.ShareOut(t.MachinePower, weights)
}
