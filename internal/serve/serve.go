// Package serve is the campaign-as-a-service daemon core: a long-running
// HTTP JSON API accepting campaign, trace-replay, pair and fleet
// submissions, sharding each job's scenarios across the shared
// protocol.ForEach worker budget, streaming per-scenario rows back as
// NDJSON, and snapshotting progress so a killed daemon resumes
// bit-identically.
//
// Determinism contract: a job's rows are pure functions of its submission
// spec — simulation and model seeds derive from scenario labels and node
// IDs, never from time, order, or process identity. The snapshot binds rows
// to the spec by the campaign fingerprint (protocol.CampaignFingerprint);
// a resumed job recomputes only missing rows and its final table is
// Float64bits-identical to an uninterrupted run's.
//
// Admission control: a bounded queue (429 + Retry-After when full), roster
// size caps (413), a byte-budgeted per-job memoization tier so one
// tenant's sweep cannot evict another's baselines, per-job deadlines and
// cancellation, and graceful drain on shutdown.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
)

// Options configures a Server.
type Options struct {
	// SnapshotDir is where job snapshots persist; empty disables
	// durability (jobs live only in memory).
	SnapshotDir string
	// QueueCap bounds jobs waiting for a runner; submissions beyond it
	// get 429 + Retry-After. Default 8.
	QueueCap int
	// Runners is the job-execution pool size. Runners only orchestrate —
	// simulation work draws from the shared GOMAXPROCS worker budget — so
	// this bounds concurrent jobs, not concurrent CPU work. Default 2.
	// Negative disables execution entirely: submissions queue but never
	// run (admission-control tests and drain rehearsals).
	Runners int
	// SnapshotEvery snapshots a running job after every n completed rows
	// (and always at terminal states). Default 4; negative disables
	// periodic snapshots.
	SnapshotEvery int
	// MaxScenarios / MaxNodes / MaxInstances are the admission caps
	// behind roster_too_large. Defaults 64 / 256 / 4096.
	MaxScenarios int
	MaxNodes     int
	MaxInstances int
	// CacheDir, when set, backs every job's baseline tier with one shared
	// persistent tier: baseline records survive restarts, so resumed and
	// repeated jobs skip their phase 1 simulations. Jobs stay isolated in
	// memory (each keeps its own CacheScope); the disk tier is shared,
	// content-addressed and safe across jobs because entries are keyed by
	// the full run fingerprint.
	CacheDir string
	// CacheDiskBytes caps the persistent tier's on-disk footprint
	// (oldest entries evicted first). Default
	// protocol.DefaultDiskCacheBytes; ignored without CacheDir.
	CacheDiskBytes int64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 8
	}
	switch {
	case o.Runners < 0:
		o.Runners = 0
	case o.Runners == 0:
		o.Runners = 2
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4
	}
	if o.MaxScenarios <= 0 {
		o.MaxScenarios = 64
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 256
	}
	if o.MaxInstances <= 0 {
		o.MaxInstances = 4096
	}
	return o
}

// Server is the daemon: job registry, bounded queue, runner pool, snapshot
// store, and the HTTP handler over them.
type Server struct {
	opts Options

	root     context.Context
	rootStop context.CancelFunc
	killed   atomic.Bool

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // registration order, for stable listings
	nextID   int
	draining bool

	queue chan *Job
	depth atomic.Int64 // queued jobs, admission-checked against QueueCap
	wg    sync.WaitGroup

	// disk is the shared persistent baseline cache (nil without CacheDir).
	disk *protocol.DiskCache

	mux *http.ServeMux
}

// New builds a server, resumes any snapshots found in SnapshotDir, and
// starts the runner pool. Partial snapshots re-enter the queue ahead of new
// work; terminal ones are served from memory.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		jobs: map[string]*Job{},
	}
	s.root, s.rootStop = context.WithCancel(context.Background())

	if opts.CacheDir != "" {
		disk, err := protocol.OpenDiskCache(opts.CacheDir, opts.CacheDiskBytes)
		if err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
		s.disk = disk
	}

	var resumed []*Job
	if opts.SnapshotDir != "" {
		if err := os.MkdirAll(opts.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		var err error
		if resumed, err = s.loadSnapshots(); err != nil {
			return nil, err
		}
	}
	// The channel outsizes the admission cap by the resumed backlog so
	// restarts never deadlock on their own snapshots; new submissions are
	// still admission-checked against QueueCap via the depth counter.
	s.queue = make(chan *Job, opts.QueueCap+len(resumed))
	for _, job := range resumed {
		if !job.State().Terminal() {
			s.depth.Add(1)
			s.queue <- job
		}
	}
	obsQueueDepth.Set(float64(s.depth.Load()))
	s.wg.Add(opts.Runners)
	for i := 0; i < opts.Runners; i++ {
		go s.runner()
	}
	s.routes()
	return s, nil
}

// loadSnapshots scans the snapshot directory and rebuilds jobs. Unreadable
// or invalid snapshots are skipped (renamed aside would risk data loss;
// they simply stay on disk, ignored) rather than failing startup.
func (s *Server) loadSnapshots() ([]*Job, error) {
	entries, err := os.ReadDir(s.opts.SnapshotDir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan snapshots: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // job-NNNNNN sorts by submission order
	var out []*Job
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(s.opts.SnapshotDir, name))
		if err != nil {
			continue
		}
		snap, rn, err := LoadSnapshot(data, s.opts)
		if err != nil {
			continue
		}
		job := jobFromSnapshot(snap, rn)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if id, ok := numericSuffix(job.ID); ok && id >= s.nextID {
			s.nextID = id + 1
		}
		if !job.State().Terminal() {
			obsResumedJobs.Inc()
			obsResumedRows.Add(uint64(job.Status().Completed))
		}
		out = append(out, job)
	}
	return out, nil
}

// numericSuffix parses the counter out of a "job-%06d" ID.
func numericSuffix(id string) (int, bool) {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(id[len(prefix):], "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the JSON API.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.Handle("GET /metrics", obs.Handler())
	mux.Handle("GET /metrics.json", obs.Handler())
	s.mux = mux
}

// submitResponse is the 202 body of an async submission.
type submitResponse struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Kind        string `json:"kind"`
	Units       int    `json:"units"`
	Fingerprint string `json:"fingerprint"`
}

// handleSubmit admits one job: decode, compile (typed 4xx on failure),
// queue (429 when full, 503 when draining). With "stream":true the
// response is the job's NDJSON row stream instead of a 202, and the
// client's disconnect cancels the job mid-simulation.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&spec); err != nil {
		obsRejected.Inc()
		writeError(w, apiErrorf(ErrBadJSON, "%v", err))
		return
	}
	rn, aerr := compile(spec, s.opts)
	if aerr != nil {
		obsRejected.Inc()
		writeError(w, *aerr)
		return
	}
	job, aerr := s.admit(spec, rn)
	if aerr != nil {
		obsRejected.Inc()
		writeError(w, *aerr)
		return
	}
	obsSubmitted.Inc()
	s.persist(job)
	if spec.Stream {
		// The submitter's disconnect aborts the job: its in-flight
		// simulators stop at the next tick and the partial snapshot
		// remains resumable.
		stop := context.AfterFunc(r.Context(), func() {
			job.Cancel("client disconnected")
		})
		defer stop()
		s.streamJob(w, r, job)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(submitResponse{
		ID: job.ID, State: job.State(), Kind: job.Kind,
		Units: job.Units, Fingerprint: job.Fingerprint,
	})
}

// admit registers and enqueues a compiled job under the admission limits.
func (s *Server) admit(spec SubmitRequest, rn *runnable) (*Job, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		e := apiErrorf(ErrDraining, "server is draining")
		return nil, &e
	}
	if s.depth.Load() >= int64(s.opts.QueueCap) {
		e := apiErrorf(ErrQueueFull, "queue holds %d jobs", s.opts.QueueCap)
		return nil, &e
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	job := newJob(id, spec, rn)
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.depth.Add(1)
	obsQueueDepth.Set(float64(s.depth.Load()))
	select {
	case s.queue <- job:
	default:
		// The channel never fills before the depth check does; guard
		// against it anyway rather than blocking a handler.
		s.depth.Add(-1)
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		e := apiErrorf(ErrQueueFull, "queue holds %d jobs", s.opts.QueueCap)
		return nil, &e
	}
	return job, nil
}

// handleList lists jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].Status())
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"jobs": statuses})
}

// lookup resolves the path's job ID.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, apiErrorf(ErrNotFound, "no job %q", id))
		return nil
	}
	return job
}

// handleStatus reports one job.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.Status())
}

// handleCancel requests cancellation. Idempotent: cancelling a terminal
// job reports its (unchanged) state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.Cancel("cancelled by client")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.Status())
}

// handleResults streams the job's rows as NDJSON. Works during the run
// (rows flush as units complete) and after it (rows replay from memory or
// snapshot); the stream always ends with one terminal summary line.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.streamJob(w, r, job)
}

// resultTerminal is the NDJSON stream's final line.
type resultTerminal struct {
	Done        bool     `json:"done"`
	State       State    `json:"state"`
	Rows        int      `json:"rows"`
	Fingerprint string   `json:"fingerprint"`
	Error       string   `json:"error,omitempty"`
	Summary     *Summary `json:"summary,omitempty"`
}

// streamJob writes rows in index order, then the terminal line.
// Blocking on not-yet-computed rows is the backpressure: the client reads
// results exactly as fast as the simulators produce them. Row 0 and the
// terminal line are flushed at once; a later row is flushed only when the
// next line is not ready yet, so rows that are already complete leave in
// as few writes as the buffer allows and no row waits in it while the
// stream blocks.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Admission is visible at once: the headers do not wait for row 0,
		// which comes only after the job is queued, compiled and through
		// phase 1.
		flusher.Flush()
	}
	cctx := r.Context()
	defer job.watch(cctx)()
	enc := json.NewEncoder(w)
	streamed := 0
	for i := 0; i < job.Units; i++ {
		row, ok := job.waitRow(cctx, i)
		if !ok {
			break
		}
		if enc.Encode(row) != nil {
			return
		}
		if flusher != nil && (i == 0 || !job.ready(i+1)) {
			flusher.Flush()
		}
		streamed++
		obsRowsStreamed.Inc()
	}
	if streamed == job.Units {
		// All rows are out but the job may still be folding its summary;
		// wait for the terminal state so the final line carries it.
		job.waitTerminal(cctx)
	}
	st := job.Status()
	enc.Encode(resultTerminal{
		Done:        true,
		State:       st.State,
		Rows:        streamed,
		Fingerprint: st.Fingerprint,
		Error:       st.Error,
		Summary:     job.Summary(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// Jobs returns the registered jobs in submission order (test and tooling
// accessor).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Job returns one job by ID.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Drain gracefully shuts down: stop admitting, let queued and running jobs
// finish, then stop the runners. If the timeout expires first, remaining
// jobs are cancelled (their partial snapshots stay resumable). Returns true
// if everything finished in time.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.rootStop()
		return true
	case <-time.After(timeout):
		s.rootStop() // cancel stragglers; their runners exit via the queue close
		<-done
		return false
	}
}

// Kill simulates a crash for the resume tests: cancel everything
// immediately and write nothing more to the snapshot directory, leaving
// the last periodic snapshots as the durable state a restarted daemon
// resumes from.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.rootStop()
	if !already {
		close(s.queue)
	}
	s.wg.Wait()
}

// Wait blocks until the job is terminal (or ctx expires) and returns the
// final state.
func (j *Job) Wait(ctx context.Context) State {
	defer j.watch(ctx)()
	return j.waitTerminal(ctx)
}

// waitTerminal is Wait for a caller that already watches cctx.
func (j *Job) waitTerminal(cctx context.Context) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.state.Terminal() && cctx.Err() == nil {
		j.cond.Wait()
	}
	return j.state
}
