package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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

// flushCounter is an http.ResponseWriter whose Flush counts and then runs
// onFlush, so a test can complete rows exactly when the stream flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	onFlush func()
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
	if f.onFlush != nil {
		f.onFlush()
	}
}

// TestStreamFlushesOnlyWhenBlocked pins streamJob's flush policy with a
// counting http.Flusher: the headers, row 0 and the terminal line are
// flushed at once, and a later row only when the next line is not ready.
// A job whose rows are all complete streams in three flushes; a job whose
// every row completes only after the writer flushed costs one flush per
// row. Both streams carry the same bytes.
func TestStreamFlushesOnlyWhenBlocked(t *testing.T) {
	t.Parallel()
	const units = 4
	var bodies []string
	for _, c := range []struct {
		name  string
		ready int
		want  int
	}{
		{"finished", units, 3},
		{"trickling", 0, units + 2},
	} {
		job := newJob("j", SubmitRequest{}, &runnable{kind: KindTraffic, units: units})
		next := 0
		complete := func() {
			if next < units {
				job.appendRow(&ResultRow{Index: next, Label: fmt.Sprint(next)})
				next++
				return
			}
			job.setState(StateDone, "")
		}
		for next < c.ready {
			complete()
		}
		if c.ready == units {
			complete()
		}
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		if c.ready < units {
			w.onFlush = complete
		}
		(&Server{}).streamJob(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/j/results", nil), job)
		if w.flushes != c.want {
			t.Errorf("%s: %d flushes, want %d", c.name, w.flushes, c.want)
		}
		bodies = append(bodies, w.Body.String())
	}
	if bodies[0] != bodies[1] {
		t.Errorf("the streams differ:\n%s\n%s", bodies[0], bodies[1])
	}
	if n := strings.Count(bodies[0], "\n"); n != units+1 {
		t.Errorf("stream has %d lines, want %d rows and the terminal line", n, units)
	}
}
