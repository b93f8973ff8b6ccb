package protocol

// This file holds the rows of traffic and timeline campaigns: timed
// rosters whose instances arrive (AppSpec.StartAt), burst and exit
// (StopAt) while the scenario runs — the paper's "production context"
// shape that the static pair campaigns cannot reach, and its Fig 11
// timelines. The objective is per tick, over the instances actually
// present: churn transitions are exactly what is under test, so every busy
// tick is scored (streaming.go). The two kinds differ only in how a
// scenario is labelled and seeded (CampaignKind).

// TrafficEvaluation is the scored outcome of one model on one traffic
// scenario.
type TrafficEvaluation struct {
	Scenario Scenario
	Model    string
	// AE is the Eq 5 absolute error with per-tick objective shares over the
	// instances present at each tick.
	AE float64
	// Coverage is the fraction of busy ticks the model estimated —
	// membership churn forces recalibration (PowerAPI's learning drops),
	// which lowers it.
	Coverage float64
	// BusyTicks counts ticks with at least one instance running;
	// ScoredTicks those that entered the Eq 5 average.
	BusyTicks   int
	ScoredTicks int
}

// TrafficSummary aggregates one model over a traffic campaign.
type TrafficSummary struct {
	Model string
	// MeanAE and MaxAE are over the Scored scenarios only: a scenario in
	// which the model estimated no busy tick has no error, not a zero one.
	MeanAE float64
	MaxAE  float64
	// WorstScenario is the first scenario achieving MaxAE, empty when no
	// error is positive.
	WorstScenario string
	// MeanCoverage is the mean per-scenario estimate coverage, over every
	// scenario.
	MeanCoverage float64
	// Scored counts the scenarios with at least one scored tick.
	Scored      int
	Evaluations []TrafficEvaluation
}

// SummarizeTraffic aggregates per-scenario traffic evaluations.
func SummarizeTraffic(model string, evs []TrafficEvaluation) TrafficSummary {
	var f AEFold
	for _, ev := range evs {
		f.Add(ev.AE, ev.Coverage, ev.ScoredTicks > 0)
	}
	s := TrafficSummary{Model: model, MeanAE: f.MeanAE(), MaxAE: f.MaxAE(),
		MeanCoverage: f.MeanCoverage(), Scored: f.Scored(), Evaluations: evs}
	if s.MaxAE > 0 {
		s.WorstScenario = evs[f.Worst()].Scenario.Label()
	}
	return s
}

// AEFold folds per-scenario Eq 5 absolute errors into one model's summary
// (§III-E, §IV-A): the mean and the largest error over the scored
// scenarios — a scenario in which the model scored no tick has no error,
// not a zero one — and the mean coverage over every scenario. Sums run in
// Add order, so a caller that folds in a fixed order gets bit-reproducible
// summaries. The zero value is an empty fold.
type AEFold struct {
	sumAE, sumCov, max float64
	n, scored          int
	// worst is 1 + the Add index of the row holding max, 0 before the
	// first scored row.
	worst int
}

// Add folds one scenario's error and coverage; scored reports whether the
// model scored any tick of it, and ae counts only if it did.
func (f *AEFold) Add(ae, coverage float64, scored bool) {
	f.n++
	f.sumCov += coverage
	if !scored {
		return
	}
	f.scored++
	f.sumAE += ae
	if ae > f.max || f.worst == 0 && ae >= f.max {
		f.max, f.worst = ae, f.n
	}
}

// MeanAE is the mean error over the scored scenarios, 0 when none is.
func (f *AEFold) MeanAE() float64 {
	if f.scored == 0 {
		return 0
	}
	return f.sumAE / float64(f.scored)
}

// MaxAE is the largest error of a scored scenario, 0 when none is.
func (f *AEFold) MaxAE() float64 { return f.max }

// Worst is the Add index of the first scored scenario holding MaxAE, -1
// when none is scored.
func (f *AEFold) Worst() int { return f.worst - 1 }

// MeanCoverage is the mean coverage over every scenario, 0 when empty.
func (f *AEFold) MeanCoverage() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sumCov / float64(f.n)
}

// Scenarios counts the scenarios folded.
func (f *AEFold) Scenarios() int { return f.n }

// Scored counts the scored scenarios folded.
func (f *AEFold) Scored() int { return f.scored }
