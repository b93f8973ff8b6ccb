package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// contextWithTimeout is a test-scoped context for Wait calls.
func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// testSpec is the canonical small traffic job the lifecycle tests submit:
// deterministic, a few hundred milliseconds of wall clock, enough scenarios
// to interrupt meaningfully.
func testSpec(scenarios int) SubmitRequest {
	return SubmitRequest{
		Kind:           KindTraffic,
		Seed:           42,
		Scenarios:      scenarios,
		WindowMS:       4000,
		RunForMS:       5000,
		StableWindowMS: 2000,
	}
}

// newTestServer builds a server + httptest frontend.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	// Stop the runners before the test's temp dirs are removed: a job
	// still running, or still writing its terminal snapshot, when the test
	// returns would otherwise write into a directory being deleted.
	t.Cleanup(s.Kill)
	return s, hs
}

// submitJob POSTs a spec and decodes the 202 response.
func submitJob(t *testing.T, base string, spec SubmitRequest) submitResponse {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// readStream consumes an NDJSON result stream into rows + terminal line.
func readStream(t *testing.T, r io.Reader) ([]ResultRow, resultTerminal) {
	t.Helper()
	var rows []ResultRow
	var term resultTerminal
	sawTerm := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line is not JSON: %q: %v", line, err)
		}
		if probe.Done != nil {
			if sawTerm {
				t.Fatal("stream emitted two terminal lines")
			}
			sawTerm = true
			if err := json.Unmarshal(line, &term); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if sawTerm {
			t.Fatal("row after the terminal line")
		}
		var row ResultRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTerm {
		t.Fatal("stream ended without a terminal line")
	}
	return rows, term
}

// fetchResults GETs the full result stream of a job.
func fetchResults(t *testing.T, base, id string) ([]ResultRow, resultTerminal) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	return readStream(t, resp.Body)
}

// requireRowsIdentical compares two row sets Float64bits-for-Float64bits.
func requireRowsIdentical(t *testing.T, want, got []ResultRow) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d rows vs %d rows", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Index != g.Index || w.Label != g.Label {
			t.Fatalf("row %d: (%d,%q) vs (%d,%q)", i, w.Index, w.Label, g.Index, g.Label)
		}
		if len(w.Models) != len(g.Models) {
			t.Fatalf("row %d: %d models vs %d", i, len(w.Models), len(g.Models))
		}
		for m := range w.Models {
			wm, gm := w.Models[m], g.Models[m]
			if wm.Model != gm.Model {
				t.Fatalf("row %d model %d: %q vs %q", i, m, wm.Model, gm.Model)
			}
			if math.Float64bits(wm.AE) != math.Float64bits(gm.AE) {
				t.Errorf("row %d %s: AE %v != %v", i, wm.Model, wm.AE, gm.AE)
			}
			if math.Float64bits(wm.Coverage) != math.Float64bits(gm.Coverage) {
				t.Errorf("row %d %s: Coverage %v != %v", i, wm.Model, wm.Coverage, gm.Coverage)
			}
			if wm.ScoredTicks != gm.ScoredTicks || wm.BusyTicks != gm.BusyTicks {
				t.Errorf("row %d %s: ticks (%d,%d) != (%d,%d)", i, wm.Model,
					wm.ScoredTicks, wm.BusyTicks, gm.ScoredTicks, gm.BusyTicks)
			}
		}
	}
}

// requireSummariesIdentical compares job summaries bit for bit.
func requireSummariesIdentical(t *testing.T, want, got *Summary) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("summary missing: want=%v got=%v", want != nil, got != nil)
	}
	if len(want.Models) != len(got.Models) {
		t.Fatalf("%d summary models vs %d", len(want.Models), len(got.Models))
	}
	for i := range want.Models {
		w, g := want.Models[i], got.Models[i]
		if w.Model != g.Model || w.Scenarios != g.Scenarios {
			t.Fatalf("summary %d: (%q,%d) vs (%q,%d)", i, w.Model, w.Scenarios, g.Model, g.Scenarios)
		}
		for _, f := range []struct {
			name string
			a, b float64
		}{
			{"MeanAE", w.MeanAE, g.MeanAE},
			{"MaxAE", w.MaxAE, g.MaxAE},
			{"MeanCoverage", w.MeanCoverage, g.MeanCoverage},
		} {
			if math.Float64bits(f.a) != math.Float64bits(f.b) {
				t.Errorf("summary %s %s: %v != %v", w.Model, f.name, f.a, f.b)
			}
		}
	}
}

// TestServeLifecycle is the uninterrupted end-to-end pass: submit over
// HTTP, stream NDJSON rows in index order, check status transitions and
// the terminal summary line.
func TestServeLifecycle(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	spec := testSpec(5)
	sr := submitJob(t, hs.URL, spec)
	if sr.Units != 5 || sr.Kind != KindTraffic || len(sr.Fingerprint) != 16 {
		t.Fatalf("submit response %+v", sr)
	}
	rows, term := fetchResults(t, hs.URL, sr.ID)
	if len(rows) != 5 {
		t.Fatalf("%d rows streamed, want 5", len(rows))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d has index %d — stream must be index-ordered", i, row.Index)
		}
		if len(row.Models) == 0 {
			t.Fatalf("row %d has no model scores", i)
		}
	}
	if !term.Done || term.State != StateDone || term.Error != "" {
		t.Fatalf("terminal line %+v", term)
	}
	if term.Summary == nil || len(term.Summary.Models) == 0 {
		t.Fatal("terminal line has no summary")
	}
	if term.Fingerprint != sr.Fingerprint {
		t.Fatalf("terminal fingerprint %s != submit fingerprint %s", term.Fingerprint, sr.Fingerprint)
	}

	// Status endpoint agrees.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone || st.Completed != 5 {
		t.Fatalf("status %+v", st)
	}

	// Re-reading results replays the identical rows.
	again, term2 := fetchResults(t, hs.URL, sr.ID)
	requireRowsIdentical(t, rows, again)
	requireSummariesIdentical(t, term.Summary, term2.Summary)
}

// TestServeKillResume is the tentpole e2e: run a job uninterrupted for the
// reference table; run the same spec on a snapshot-every-row server and
// kill the daemon mid-job; restart over the same snapshot directory and
// let it resume. The resumed job's rows and summary must be
// Float64bits-identical to the uninterrupted run's.
func TestServeKillResume(t *testing.T) {
	t.Parallel()
	spec := testSpec(8)

	// Reference: uninterrupted run.
	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	ref := submitJob(t, hs.URL, spec)
	wantRows, wantTerm := fetchResults(t, hs.URL, ref.ID)
	if wantTerm.State != StateDone {
		t.Fatalf("reference run ended %s", wantTerm.State)
	}

	// Interrupted: snapshot after every row, kill once progress exists.
	dir := t.TempDir()
	s2, hs2 := newTestServer(t, Options{SnapshotDir: dir, SnapshotEvery: 1})
	victim := submitJob(t, hs2.URL, spec)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s2.Job(victim.ID).Status()
		if st.Completed >= 2 || st.State.Terminal() {
			if st.State.Terminal() {
				t.Logf("job finished before the kill (completed=%d); resume will be a no-op replay", st.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress before the kill deadline")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s2.Kill()
	hs2.Close()

	// Restart over the same snapshot dir: the partial job re-enters the
	// queue and completes; the killed daemon's rows are reused bit for bit.
	s3, hs3 := newTestServer(t, Options{SnapshotDir: dir, SnapshotEvery: 1})
	job := s3.Job(victim.ID)
	if job == nil {
		t.Fatal("restarted server did not restore the job")
	}
	gotRows, gotTerm := fetchResults(t, hs3.URL, victim.ID)
	if gotTerm.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", gotTerm.State, gotTerm.Error)
	}
	if gotTerm.Fingerprint != wantTerm.Fingerprint {
		t.Fatalf("fingerprint drifted across restart: %s != %s", gotTerm.Fingerprint, wantTerm.Fingerprint)
	}
	requireRowsIdentical(t, wantRows, gotRows)
	requireSummariesIdentical(t, wantTerm.Summary, gotTerm.Summary)
	if s3.Drain(10*time.Second) != true {
		t.Fatal("drain timed out")
	}
}

// TestServeResumeFromPartialSnapshot pins the resume path deterministically:
// a hand-planted partial snapshot (state running, first rows present) must
// be requeued, completed by evaluating only the missing units, and end with
// the uninterrupted run's exact table. This covers the mid-job window the
// kill test can only hit probabilistically.
func TestServeResumeFromPartialSnapshot(t *testing.T) {
	t.Parallel()
	spec := testSpec(6)

	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	ref := submitJob(t, hs.URL, spec)
	wantRows, wantTerm := fetchResults(t, hs.URL, ref.ID)

	rn, aerr := compile(spec, Options{}.withDefaults())
	if aerr != nil {
		t.Fatal(aerr)
	}
	partial := Snapshot{
		Version:     SnapshotVersion,
		JobID:       "job-000123",
		Kind:        rn.kind,
		Fingerprint: rn.fingerprint,
		State:       StateRunning,
		Spec:        spec,
	}
	for i := 0; i < 2; i++ {
		row := wantRows[i]
		partial.Rows = append(partial.Rows, &row)
	}
	dir := t.TempDir()
	if err := writeSnapshot(dir, partial); err != nil {
		t.Fatal(err)
	}
	s2, hs2 := newTestServer(t, Options{SnapshotDir: dir})
	job := s2.Job("job-000123")
	if job == nil {
		t.Fatal("partial snapshot was not restored")
	}
	gotRows, gotTerm := fetchResults(t, hs2.URL, "job-000123")
	if gotTerm.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", gotTerm.State, gotTerm.Error)
	}
	requireRowsIdentical(t, wantRows, gotRows)
	requireSummariesIdentical(t, wantTerm.Summary, gotTerm.Summary)

	// The next submission's ID continues past the restored counter.
	next := submitJob(t, hs2.URL, testSpec(2))
	if next.ID <= "job-000123" {
		t.Fatalf("new job ID %s does not continue past the restored job-000123", next.ID)
	}
}

// TestServeStreamSubmit exercises "stream":true: the submission response
// itself is the NDJSON row stream.
func TestServeStreamSubmit(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	spec := testSpec(3)
	spec.Stream = true
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submit: status %d", resp.StatusCode)
	}
	rows, term := readStream(t, resp.Body)
	if len(rows) != 3 || term.State != StateDone {
		t.Fatalf("%d rows, state %s", len(rows), term.State)
	}
}

// TestServeStreamDisconnectCancels pins the disconnect seam: a streaming
// submitter that goes away cancels the job, which aborts its in-flight
// simulators and ends cancelled — not done.
func TestServeStreamDisconnectCancels(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	spec := testSpec(16)
	spec.Seed = 7
	spec.Stream = true
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Read one row so the job is definitely admitted and running, then
	// drop the connection.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		jobs := s.Jobs()
		if len(jobs) == 1 && jobs[0].State().Terminal() {
			if st := jobs[0].State(); st != StateCancelled && st != StateDone {
				t.Fatalf("disconnected job ended %s", st)
			}
			if jobs[0].State() == StateDone {
				t.Log("job outran the disconnect; cancellation had nothing to stop")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeCancelEndpoint cancels a running job via DELETE and checks it
// lands in cancelled with a terminal snapshot.
func TestServeCancelEndpoint(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	sr := submitJob(t, hs.URL, testSpec(16))
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := s.Job(sr.ID).Wait(contextWithTimeout(t, 30*time.Second))
	if st != StateCancelled && st != StateDone {
		t.Fatalf("cancelled job ended %s", st)
	}
}

// TestServeDeadline submits a job with a deadline it cannot meet and
// expects a failed state mentioning the deadline.
func TestServeDeadline(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	spec := testSpec(32)
	spec.Seed = 99
	// Ten simulated minutes per run: even one solo baseline outlasts the
	// 1 ms deadline, so the deadline always fires mid-campaign.
	spec.WindowMS = maxDurationMS
	spec.RunForMS = maxDurationMS
	spec.StableWindowMS = 10000
	spec.DeadlineMS = 1
	sr := submitJob(t, hs.URL, spec)
	st := s.Job(sr.ID).Wait(contextWithTimeout(t, 30*time.Second))
	if st != StateFailed {
		t.Fatalf("deadline job ended %s", st)
	}
	if status := s.Job(sr.ID).Status(); !strings.Contains(status.Error, "deadline") {
		t.Fatalf("deadline job error %q", status.Error)
	}
}

// TestServeErrorPaths table-tests the typed 4xx bodies.
func TestServeErrorPaths(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir(), MaxScenarios: 4})
	cases := []struct {
		name     string
		body     string
		status   int
		code     string
		endpoint string
		method   string
	}{
		{"bad json", `{"kind":`, http.StatusBadRequest, ErrBadJSON, "/v1/jobs", "POST"},
		{"unknown kind", `{"kind":"quantum"}`, http.StatusBadRequest, ErrBadRequest, "/v1/jobs", "POST"},
		{"unknown kernel", `{"kind":"traffic","kernels":["fission"]}`, http.StatusBadRequest, ErrUnknownKernel, "/v1/jobs", "POST"},
		{"unknown function", `{"kind":"pairs","functions":["fission"]}`, http.StatusBadRequest, ErrUnknownKernel, "/v1/jobs", "POST"},
		{"oversized roster", `{"kind":"traffic","scenarios":400}`, http.StatusRequestEntityTooLarge, ErrRosterTooLarge, "/v1/jobs", "POST"},
		{"oversized window", `{"kind":"traffic","window_ms":99999999}`, http.StatusBadRequest, ErrBadRequest, "/v1/jobs", "POST"},
		{"unknown machine", `{"kind":"traffic","machine":"CRAY-1"}`, http.StatusBadRequest, ErrBadRequest, "/v1/jobs", "POST"},
		{"trace without trace", `{"kind":"trace"}`, http.StatusBadRequest, ErrBadRequest, "/v1/jobs", "POST"},
		{"unknown job", "", http.StatusNotFound, ErrNotFound, "/v1/jobs/job-999999", "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "POST" {
				resp, err = http.Post(hs.URL+tc.endpoint, "application/json", strings.NewReader(tc.body))
			} else {
				resp, err = http.Get(hs.URL + tc.endpoint)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if eb.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", eb.Error.Code, tc.code)
			}
			if eb.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestServeQueueFull fills the queue and expects 429 + Retry-After.
// Runners are disabled so the queue state is deterministic — the bound
// under live runners is covered by the race stress test.
func TestServeQueueFull(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{QueueCap: 2, Runners: -1})
	submitJob(t, hs.URL, testSpec(2))
	submitJob(t, hs.URL, testSpec(2))
	body, _ := json.Marshal(testSpec(2))
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if eb.Error.Code != ErrQueueFull {
		t.Fatalf("code %q", eb.Error.Code)
	}
}

// TestServeDrainRejects checks that a draining server refuses new jobs
// with the typed 503 and finishes the ones it holds.
func TestServeDrainRejects(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	sr := submitJob(t, hs.URL, testSpec(2))
	done := make(chan bool, 1)
	go func() { done <- s.Drain(30 * time.Second) }()
	// Draining must reject new submissions while the in-flight job runs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(testSpec(2))
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if eb.Error.Code != ErrDraining {
				t.Fatalf("code %q", eb.Error.Code)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started rejecting")
		}
		time.Sleep(time.Millisecond)
	}
	if !<-done {
		t.Fatal("drain timed out")
	}
	if st := s.Job(sr.ID).State(); st != StateDone {
		t.Fatalf("drained job ended %s, want done", st)
	}
}

// TestServeFleetJob runs a small fleet submission end to end: per-node
// digest rows and a fleet.Reduce summary.
func TestServeFleetJob(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	spec := SubmitRequest{Kind: KindFleet, Seed: 5, Nodes: 3, WindowMS: 3000, RunForMS: 3000, StableWindowMS: 1500}
	sr := submitJob(t, hs.URL, spec)
	if sr.Units != 3 {
		t.Fatalf("fleet job has %d units, want 3", sr.Units)
	}
	rows, term := fetchResults(t, hs.URL, sr.ID)
	if term.State != StateDone {
		t.Fatalf("fleet job ended %s (%s)", term.State, term.Error)
	}
	for i, row := range rows {
		if row.Node == nil {
			t.Fatalf("fleet row %d without node digest", i)
		}
		if want := fmt.Sprintf("node-%05d", i); row.Node.Node.ID != want {
			t.Fatalf("fleet row %d is node %s, want %s", i, row.Node.Node.ID, want)
		}
	}
	if term.Summary == nil || term.Summary.Fleet == nil || term.Summary.Fleet.Nodes != 3 {
		t.Fatalf("fleet summary %+v", term.Summary)
	}
}

// TestServeHealthAndMetrics smoke-checks the operational endpoints.
func TestServeHealthAndMetrics(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/metrics", "/metrics.json"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}
