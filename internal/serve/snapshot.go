package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// SnapshotVersion is the on-disk format version. Loaders reject other
// versions outright — a snapshot that decodes is always fully understood.
const SnapshotVersion = 1

// Snapshot is a job's durable state: the submission spec (enough to
// recompile the runnable), the fingerprint binding the rows to that spec,
// and every completed row verbatim. Partial snapshots re-enter the queue on
// daemon start and skip their completed rows; terminal ones are served from
// disk. Row float64s survive the JSON round trip bit for bit, so a resumed
// job's final table is indistinguishable from an uninterrupted run's.
type Snapshot struct {
	Version     int           `json:"version"`
	JobID       string        `json:"job_id"`
	Kind        string        `json:"kind"`
	Fingerprint string        `json:"fingerprint"`
	State       State         `json:"state"`
	Spec        SubmitRequest `json:"spec"`
	Rows        []*ResultRow  `json:"rows,omitempty"`
	Summary     *Summary      `json:"summary,omitempty"`
	Err         string        `json:"error,omitempty"`
}

// snapshotOf captures the job's current state under its lock.
func snapshotOf(j *Job) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		Version:     SnapshotVersion,
		JobID:       j.ID,
		Kind:        j.Kind,
		Fingerprint: j.Fingerprint,
		State:       j.state,
		Spec:        j.Spec,
		Summary:     j.summary,
		Err:         j.errMsg,
	}
	for _, r := range j.rows {
		if r != nil {
			snap.Rows = append(snap.Rows, r)
		}
	}
	return snap
}

// saveSnapshot captures the job's state and commits it to dir. Workers
// persist one job concurrently, and every write of a job goes through the
// same temp file, so the capture and the write happen under the job's
// persist lock: snapshots commit whole and in capture order, and a later
// snapshot never holds fewer rows than an earlier one.
func (j *Job) saveSnapshot(dir string) error {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	return writeSnapshot(dir, snapshotOf(j))
}

// writeSnapshot persists atomically: temp file in the same directory, fsync
// semantics via rename. A crash mid-write leaves the previous snapshot
// intact; a crash between snapshots loses at most SnapshotEvery rows of
// work, never correctness.
func writeSnapshot(dir string, snap Snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: marshal snapshot %s: %w", snap.JobID, err)
	}
	final := filepath.Join(dir, snap.JobID+".json")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: write snapshot %s: %w", snap.JobID, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("serve: commit snapshot %s: %w", snap.JobID, err)
	}
	return nil
}

// LoadSnapshot decodes and fully validates one snapshot file against the
// server's admission options: version, spec recompilation, fingerprint
// match, and row shape. Accepting implies the job is resumable — the fuzz
// contract — so every check a resume would need happens here, not later.
func LoadSnapshot(data []byte, opts Options) (Snapshot, *runnable, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.JobID == "" || strings.ContainsAny(snap.JobID, "/\\") || strings.Contains(snap.JobID, "..") {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot job ID %q invalid", snap.JobID)
	}
	switch snap.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot state %q invalid", snap.State)
	}
	rn, aerr := compile(snap.Spec, opts)
	if aerr != nil {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot spec no longer compiles: %v", aerr)
	}
	if rn.fingerprint != snap.Fingerprint {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot fingerprint %s does not match spec fingerprint %s",
			snap.Fingerprint, rn.fingerprint)
	}
	if rn.kind != snap.Kind {
		return Snapshot{}, nil, fmt.Errorf("serve: snapshot kind %q does not match spec kind %q", snap.Kind, rn.kind)
	}
	seen := make(map[int]bool, len(snap.Rows))
	for _, r := range snap.Rows {
		if r == nil {
			return Snapshot{}, nil, fmt.Errorf("serve: snapshot holds a null row")
		}
		if r.Index < 0 || r.Index >= rn.units {
			return Snapshot{}, nil, fmt.Errorf("serve: snapshot row index %d out of range [0,%d)", r.Index, rn.units)
		}
		if seen[r.Index] {
			return Snapshot{}, nil, fmt.Errorf("serve: snapshot row index %d duplicated", r.Index)
		}
		seen[r.Index] = true
		if r.Label != rn.labels[r.Index] {
			return Snapshot{}, nil, fmt.Errorf("serve: snapshot row %d label %q, spec says %q", r.Index, r.Label, rn.labels[r.Index])
		}
		if rn.kind == KindFleet && r.Node == nil {
			return Snapshot{}, nil, fmt.Errorf("serve: fleet snapshot row %d without a node digest", r.Index)
		}
		if rn.kind != KindFleet && len(r.Models) == 0 {
			return Snapshot{}, nil, fmt.Errorf("serve: snapshot row %d without model scores", r.Index)
		}
	}
	if snap.State == StateDone && len(seen) != rn.units {
		return Snapshot{}, nil, fmt.Errorf("serve: done snapshot holds %d of %d rows", len(seen), rn.units)
	}
	return snap, rn, nil
}

// jobFromSnapshot rebuilds a job from a validated snapshot. Non-terminal
// snapshots come back as queued with their completed rows prefilled; the
// runner then evaluates only the remainder.
func jobFromSnapshot(snap Snapshot, rn *runnable) *Job {
	j := newJob(snap.JobID, snap.Spec, rn)
	for _, r := range snap.Rows {
		j.rows[r.Index] = r
		j.completed++
	}
	if snap.State.Terminal() {
		j.state = snap.State
		j.errMsg = snap.Err
		j.summary = snap.Summary
		if snap.State == StateDone && j.summary == nil {
			j.summary = summarize(rn, j.rows)
		}
		j.rn = nil // never queued: nothing will take it
	}
	return j
}
