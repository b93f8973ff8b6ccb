package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/traffic"
)

// TestServeListEndpoint pins GET /v1/jobs: submission order, one status
// entry per job.
func TestServeListEndpoint(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{Runners: -1})
	first := submitJob(t, hs.URL, testSpec(2))
	second := submitJob(t, hs.URL, testSpec(3))

	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var body struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	list := body.Jobs
	if len(list) != 2 {
		t.Fatalf("list holds %d jobs, want 2", len(list))
	}
	if list[0].ID != first.ID || list[1].ID != second.ID {
		t.Fatalf("list order %s,%s; want %s,%s", list[0].ID, list[1].ID, first.ID, second.ID)
	}
	if list[1].Units != 3 {
		t.Fatalf("second job lists %d units, want 3", list[1].Units)
	}
}

// TestServePairsJob runs the static stress-pair kind end to end with its
// default roster (fibonacci/int64 × 1,2 threads).
func TestServePairsJob(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{})
	// No duration overrides: the lab context's defaults give the sampled
	// models (powerapi) enough stable window to produce estimates.
	sr := submitJob(t, hs.URL, SubmitRequest{Kind: KindPairs, Seed: 7})
	if sr.Kind != KindPairs || sr.Units <= 0 {
		t.Fatalf("submit response %+v", sr)
	}
	if st := s.Job(sr.ID).Wait(contextWithTimeout(t, time.Minute)); st != StateDone {
		t.Fatalf("pairs job ended %s", st)
	}
	rows, term := fetchResults(t, hs.URL, sr.ID)
	if len(rows) != sr.Units {
		t.Fatalf("streamed %d rows for %d units", len(rows), sr.Units)
	}
	for _, r := range rows {
		if len(r.Models) == 0 {
			t.Fatalf("pairs row %d (%s) has no model scores", r.Index, r.Label)
		}
	}
	if term.Summary == nil || len(term.Summary.Models) == 0 {
		t.Fatal("pairs job finished without a model summary")
	}
}

// TestServePairsJobRepeatedScenario runs a pairs job whose runnable lists
// one scenario twice. Nothing of a scored scenario is memoized, so both
// copies are simulated and scored on their own, and their rows must be
// identical.
func TestServePairsJobRepeatedScenario(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, Options{})
	spec := SubmitRequest{Kind: KindPairs, Seed: 7, Functions: []string{"fibonacci", "int64"}, Sizes: []int{1}}
	rn, aerr := compile(spec, s.opts)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if rn.units != 1 {
		t.Fatalf("pairs spec compiled to %d units, want 1", rn.units)
	}
	rn.scenarios = append(rn.scenarios, rn.scenarios[0])
	rn.labels = append(rn.labels, rn.labels[0])
	rn.units = len(rn.scenarios)
	job := newJob("job-repeat", spec, rn)
	s.runJob(job)
	if st := job.State(); st != StateDone {
		t.Fatalf("job ended %s (%s)", st, job.Status().Error)
	}
	first, second := job.row(0), job.row(1)
	if first == nil || second == nil || len(first.Models) == 0 {
		t.Fatalf("rows %+v and %+v", first, second)
	}
	if first.Label != second.Label || !reflect.DeepEqual(first.Models, second.Models) {
		t.Errorf("repeated scenario scored differently:\n%+v\n%+v", first, second)
	}
}

// TestServeTraceJob replays a recorded trace through the service and pins
// that the job's roster equals the trace's.
func TestServeTraceJob(t *testing.T) {
	t.Parallel()
	tcfg := traffic.Config{
		Kind: traffic.Mixed, Seed: 11, Scenarios: 3, Window: 4 * time.Second,
		ArrivalsPerMinute: 120, MaxThreads: 2, MaxCPUs: 6, Baseload: 2,
	}
	scenarios, err := traffic.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(tcfg, scenarios)

	s, hs := newTestServer(t, Options{})
	sr := submitJob(t, hs.URL, SubmitRequest{
		Kind: KindTrace, Seed: 11, RunForMS: 5000, StableWindowMS: 2000, Trace: &tr,
	})
	if sr.Units != len(tr.Scenarios) {
		t.Fatalf("trace job compiled to %d units for %d trace scenarios", sr.Units, len(tr.Scenarios))
	}
	if st := s.Job(sr.ID).Wait(contextWithTimeout(t, time.Minute)); st != StateDone {
		t.Fatalf("trace job ended %s", st)
	}
	rows, _ := fetchResults(t, hs.URL, sr.ID)
	if len(rows) != sr.Units {
		t.Fatalf("streamed %d rows for %d units", len(rows), sr.Units)
	}
}

// TestLoadSnapshotRejections pins the loader's validation surface: every
// malformed durable state is refused with a diagnostic, never resumed.
func TestLoadSnapshotRejections(t *testing.T) {
	t.Parallel()
	opts := Options{}.withDefaults()
	spec := testSpec(3)
	rn, aerr := compile(spec, opts)
	if aerr != nil {
		t.Fatal(aerr)
	}
	valid := Snapshot{
		Version: SnapshotVersion, JobID: "job-000001", Kind: rn.kind,
		Fingerprint: rn.fingerprint, State: StateRunning, Spec: spec,
		Rows: []*ResultRow{{
			Index: 0, Label: rn.labels[0],
			Models: []ModelScore{{Model: "oracle", AE: 0.5, ScoredTicks: 2}},
		}},
	}
	// Deep-copy rows so cases that edit Rows[0] don't corrupt `valid` for
	// later cases through the shared pointer.
	mutate := func(fn func(*Snapshot)) []byte {
		snap := valid
		snap.Rows = make([]*ResultRow, len(valid.Rows))
		for i, r := range valid.Rows {
			cp := *r
			cp.Models = append([]ModelScore(nil), r.Models...)
			snap.Rows[i] = &cp
		}
		fn(&snap)
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not json", []byte("nope"), "snapshot"},
		{"bad version", mutate(func(s *Snapshot) { s.Version = 99 }), "version"},
		{"path traversal id", mutate(func(s *Snapshot) { s.JobID = "../job" }), "invalid"},
		{"bad state", mutate(func(s *Snapshot) { s.State = "paused" }), "state"},
		{"uncompilable spec", mutate(func(s *Snapshot) { s.Spec.Kind = "warp" }), "compile"},
		{"fingerprint mismatch", mutate(func(s *Snapshot) { s.Fingerprint = strings.Repeat("0", 16) }), "fingerprint"},
		{"kind mismatch", mutate(func(s *Snapshot) { s.Kind = KindFleet }), "kind"},
		{"null row", mutate(func(s *Snapshot) { s.Rows = append(s.Rows, nil) }), "null row"},
		{"row out of range", mutate(func(s *Snapshot) { s.Rows[0].Index = 9 }), "out of range"},
		{"duplicate row", mutate(func(s *Snapshot) { s.Rows = append(s.Rows, s.Rows[0]) }), "duplicated"},
		{"label drift", mutate(func(s *Snapshot) { s.Rows[0].Label = "elsewhere" }), "label"},
		{"row without scores", mutate(func(s *Snapshot) { s.Rows[0].Models = nil }), "model scores"},
		{"done but partial", mutate(func(s *Snapshot) { s.State = StateDone }), "1 of 3 rows"},
	}
	for _, c := range cases {
		if _, _, err := LoadSnapshot(c.data, opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// The unmutated snapshot still loads.
	data, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(data, opts); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// TestAPIErrorString pins the Error interface rendering used in logs and
// failed-job messages.
func TestAPIErrorString(t *testing.T) {
	t.Parallel()
	err := apiErrorf(ErrQueueFull, "queue at %d", 8)
	if got, want := err.Error(), "queue_full: queue at 8"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	var asErr error = err
	if got := fmt.Sprintf("%v", asErr); !strings.Contains(got, ErrQueueFull) {
		t.Fatalf("formatted error %q lacks the code", got)
	}
}

// TestCompileFleetRejections pins the fleet kind's admission branches
// directly (the error-path HTTP table covers scenario kinds).
func TestCompileFleetRejections(t *testing.T) {
	t.Parallel()
	opts := Options{MaxNodes: 4, MaxScenarios: 8}.withDefaults()
	cases := []struct {
		name string
		spec SubmitRequest
		code string
	}{
		{"unknown kernel", SubmitRequest{Kind: KindFleet, Kernels: []string{"warp"}}, ErrUnknownKernel},
		{"bad arrivals", SubmitRequest{Kind: KindFleet, Arrivals: "sideways"}, ErrBadRequest},
		{"too many nodes", SubmitRequest{Kind: KindFleet, Nodes: 5}, ErrRosterTooLarge},
		{"too many scenarios per node", SubmitRequest{Kind: KindFleet, ScenariosPerNode: 9}, ErrRosterTooLarge},
	}
	for _, c := range cases {
		rn, aerr := compile(c.spec, opts)
		if aerr == nil {
			t.Errorf("%s: accepted as %d units", c.name, rn.units)
			continue
		}
		if aerr.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, aerr.Code, c.code)
		}
	}

	// Defaults compile: 8 nodes is over this test's cap, so name a size.
	rn, aerr := compile(SubmitRequest{Kind: KindFleet, Nodes: 3, ScenariosPerNode: 2, WindowMS: 3000}, opts)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if rn.units != 3 || rn.fingerprint == "" {
		t.Fatalf("fleet compile: %d units, fingerprint %q", rn.units, rn.fingerprint)
	}
}

// TestServeStreamAdmitsBeforeFirstRow pins that a streamed submission sees
// its 200 headers as soon as the job is admitted, not when row 0 lands:
// with no runners the job stays queued forever, yet the POST returns. The
// submitter closing the body then cancels the job.
func TestServeStreamAdmitsBeforeFirstRow(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{Runners: -1})
	spec := testSpec(2)
	spec.Stream = true
	body, _ := json.Marshal(spec)
	req, err := http.NewRequestWithContext(contextWithTimeout(t, 10*time.Second), http.MethodPost, hs.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("streamed submit did not return headers while queued: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed submit: status %d", resp.StatusCode)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].State() != StateQueued {
		t.Fatalf("jobs after admission: %+v", jobs)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for jobs[0].cancelReason() != "client disconnected" {
		if time.Now().After(deadline) {
			t.Fatal("closing the stream did not cancel the queued job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
