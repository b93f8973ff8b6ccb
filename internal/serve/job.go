package serve

import (
	"context"
	"sync"
	"time"

	"powerdiv/internal/fleet"
	"powerdiv/internal/protocol"
)

// State is a job's lifecycle stage. Every job ends in exactly one of the
// three terminal states — the invariant the concurrency stress test counts.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ModelScore is one model's score on one scenario — the per-shard slice of
// the campaign error table. Float64 fields round-trip JSON exactly (Go
// encodes the shortest representation that parses back to the same bits),
// which is what makes snapshot resume bit-identical.
type ModelScore struct {
	Model string  `json:"model"`
	AE    float64 `json:"ae"`
	// Coverage and BusyTicks apply to traffic kinds only.
	Coverage    float64 `json:"coverage,omitempty"`
	ScoredTicks int     `json:"scored_ticks"`
	BusyTicks   int     `json:"busy_ticks,omitempty"`
}

// ResultRow is one completed unit: scenario kinds fill Models (factory
// order), fleet kinds fill Node. Rows stream to clients in Index order as
// NDJSON and persist verbatim in snapshots.
type ResultRow struct {
	Index  int               `json:"index"`
	Label  string            `json:"label"`
	Models []ModelScore      `json:"models,omitempty"`
	Node   *fleet.NodeDigest `json:"node,omitempty"`
}

// ModelSummary aggregates one model over a finished scenario job, rows
// folded in index order. MeanAE and MaxAE are over the ScoredScenarios
// only — a row with no scored tick has no error, not a zero one — and
// MeanCoverage is over all Scenarios.
type ModelSummary struct {
	Model           string  `json:"model"`
	MeanAE          float64 `json:"mean_ae"`
	MaxAE           float64 `json:"max_ae"`
	MeanCoverage    float64 `json:"mean_coverage,omitempty"`
	Scenarios       int     `json:"scenarios"`
	ScoredScenarios int     `json:"scored_scenarios"`
}

// Summary is a finished job's aggregate: Models for scenario kinds, Fleet
// for fleet kinds.
type Summary struct {
	Models []ModelSummary `json:"models,omitempty"`
	Fleet  *fleet.Result  `json:"fleet,omitempty"`
}

// Job is one submission's full lifecycle. All mutable fields are guarded by
// mu; cond broadcasts on every row append and state change, which is what
// the NDJSON streamers block on.
type Job struct {
	ID          string
	Spec        SubmitRequest
	Fingerprint string
	Units       int
	Kind        string

	mu        sync.Mutex
	cond      *sync.Cond
	persistMu sync.Mutex // serializes snapshot writes; see saveSnapshot
	state     State
	rows      []*ResultRow // indexed by unit; nil until the unit completes
	completed int
	errMsg    string
	summary   *Summary
	cancel    context.CancelFunc
	cancelMsg string
	started   time.Time
	// rn is the runnable admission (or snapshot loading) compiled, handed
	// to the runner once; takeRunnable clears it, so a job retains its
	// scenarios only while queued.
	rn *runnable
}

// newJob builds a queued job over a compiled runnable.
func newJob(id string, spec SubmitRequest, rn *runnable) *Job {
	j := &Job{
		ID:          id,
		Spec:        spec,
		Fingerprint: rn.fingerprint,
		Units:       rn.units,
		Kind:        rn.kind,
		state:       StateQueued,
		rows:        make([]*ResultRow, rn.units),
		rn:          rn,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// takeRunnable hands the job's compiled runnable to its runner and drops
// the job's reference to it.
func (j *Job) takeRunnable() *runnable {
	j.mu.Lock()
	defer j.mu.Unlock()
	rn := j.rn
	j.rn = nil
	return rn
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	Units       int    `json:"units"`
	Completed   int    `json:"completed"`
	Error       string `json:"error,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.ID,
		Kind:        j.Kind,
		State:       j.state,
		Fingerprint: j.Fingerprint,
		Units:       j.Units,
		Completed:   j.completed,
		Error:       j.errMsg,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setState transitions the job and wakes every waiter. Terminal states are
// sticky: once reached, later transitions are ignored, so a user cancel
// racing a natural completion settles on whichever landed first.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.cond.Broadcast()
}

// appendRow records unit i's result and returns the completed count.
func (j *Job) appendRow(row *ResultRow) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rows[row.Index] == nil {
		j.completed++
	}
	j.rows[row.Index] = row
	j.cond.Broadcast()
	return j.completed
}

// row returns unit i's result, or nil if not yet complete.
func (j *Job) row(i int) *ResultRow {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows[i]
}

// watch converts cctx's cancellation into a broadcast, so waitRow and
// waitTerminal wake up; a stream registers it once, not once per row.
// The returned stop unregisters it.
func (j *Job) watch(cctx context.Context) (stop func() bool) {
	return context.AfterFunc(cctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
}

// waitRow blocks until unit i completes (row, true), the job reaches a
// terminal state without it (nil, false), or cctx is cancelled (nil,
// false); a watch on cctx must be registered. The caller streams rows
// strictly in index order, so this is the only ordering primitive the
// NDJSON writer needs.
func (j *Job) waitRow(cctx context.Context, i int) (*ResultRow, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.rows[i] != nil {
			return j.rows[i], true
		}
		if j.state.Terminal() || cctx.Err() != nil {
			return nil, false
		}
		j.cond.Wait()
	}
}

// ready reports whether unit i has completed — or, for i == Units, the
// stream's terminal line, whether the job is terminal — so a stream can
// tell whether its next line would be written at once.
func (j *Job) ready(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i == len(j.rows) {
		return j.state.Terminal()
	}
	return j.rows[i] != nil
}

// setCancel installs the running job's cancel hook.
func (j *Job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
}

// Cancel requests cancellation with a reason. Safe in any state: a queued
// job is cancelled by the runner when it dequeues it, a running one by its
// context, a terminal one not at all.
func (j *Job) Cancel(reason string) {
	j.mu.Lock()
	cancel := j.cancel
	if !j.state.Terminal() && j.cancelMsg == "" {
		j.cancelMsg = reason
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// cancelReason returns the pending cancel reason, if any.
func (j *Job) cancelReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelMsg
}

// finish computes the summary (rows folded in index order) and transitions
// to done.
func (j *Job) finish(rn *runnable) {
	j.mu.Lock()
	rows := make([]*ResultRow, len(j.rows))
	copy(rows, j.rows)
	j.mu.Unlock()
	sum := summarize(rn, rows)
	j.mu.Lock()
	if !j.state.Terminal() {
		j.summary = sum
		j.state = StateDone
		j.cond.Broadcast()
	}
	j.mu.Unlock()
}

// Summary returns the finished job's aggregate (nil before completion).
func (j *Job) Summary() *Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summary
}

// summarize folds completed rows into the job aggregate: models in factory
// order, rows in index order — the same accumulation order however many
// times the job was interrupted and resumed.
func summarize(rn *runnable, rows []*ResultRow) *Summary {
	if rn.kind == KindFleet {
		digests := make([]fleet.NodeDigest, 0, len(rows))
		for _, r := range rows {
			if r != nil && r.Node != nil {
				digests = append(digests, *r.Node)
			}
		}
		res := fleet.Reduce(rn.fleetCfg, digests)
		return &Summary{Fleet: &res}
	}
	var order []string
	for _, r := range rows {
		if r != nil {
			for _, ms := range r.Models {
				order = append(order, ms.Model)
			}
			break
		}
	}
	byModel := make(map[string]int, len(order))
	for m, name := range order {
		byModel[name] = m
	}
	folds := make([]protocol.AEFold, len(order))
	for _, r := range rows {
		if r == nil {
			continue
		}
		for _, ms := range r.Models {
			if m, ok := byModel[ms.Model]; ok {
				folds[m].Add(ms.AE, ms.Coverage, ms.ScoredTicks > 0)
			}
		}
	}
	out := &Summary{Models: make([]ModelSummary, len(order))}
	for m, name := range order {
		f := &folds[m]
		out.Models[m] = ModelSummary{Model: name, MeanAE: f.MeanAE(), MaxAE: f.MaxAE(),
			MeanCoverage: f.MeanCoverage(), Scenarios: f.Scenarios(), ScoredScenarios: f.Scored()}
	}
	return out
}
