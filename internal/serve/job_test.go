package serve

import (
	"math"
	"testing"
)

// TestSummarizeSkipsUnscoredRows pins that a row in which a model scored
// no tick has no error, not a zero one: mean and max AE are over the
// scored rows, scored_scenarios counts them, and coverage is over every
// row.
func TestSummarizeSkipsUnscoredRows(t *testing.T) {
	t.Parallel()
	rows := []*ResultRow{
		{Index: 0, Models: []ModelScore{{Model: "m", AE: 0.04, Coverage: 0.5, ScoredTicks: 5, BusyTicks: 10}}},
		{Index: 1, Models: []ModelScore{{Model: "m", BusyTicks: 10}}},
	}
	sum := summarize(&runnable{kind: KindTraffic}, rows)
	if len(sum.Models) != 1 {
		t.Fatalf("got %d model summaries, want 1", len(sum.Models))
	}
	ms := sum.Models[0]
	if ms.MeanAE != 0.04 || ms.MaxAE != 0.04 {
		t.Errorf("mean / max AE %v / %v, want 0.04 / 0.04 over the scored row", ms.MeanAE, ms.MaxAE)
	}
	if ms.Scenarios != 2 || ms.ScoredScenarios != 1 {
		t.Errorf("scenarios %d, scored %d; want 2 and 1", ms.Scenarios, ms.ScoredScenarios)
	}
	if math.Abs(ms.MeanCoverage-0.25) > 1e-15 {
		t.Errorf("mean coverage %v, want 0.25 over every row", ms.MeanCoverage)
	}
}
