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
	// WorstScenario is the scenario achieving MaxAE.
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
	s := TrafficSummary{Model: model, Evaluations: evs}
	for _, ev := range evs {
		s.MeanCoverage += ev.Coverage
		if ev.ScoredTicks == 0 {
			continue
		}
		s.Scored++
		s.MeanAE += ev.AE
		if ev.AE > s.MaxAE {
			s.MaxAE = ev.AE
			s.WorstScenario = ev.Scenario.Label()
		}
	}
	if s.Scored > 0 {
		s.MeanAE /= float64(s.Scored)
	}
	if len(evs) > 0 {
		s.MeanCoverage /= float64(len(evs))
	}
	return s
}
