package serve

import (
	"context"
	"errors"
	"time"

	"powerdiv/internal/protocol"
)

// runner is one worker of the job-execution pool. Runners only orchestrate:
// the simulation work itself runs on protocol.ForEach's shared worker
// budget, so however many runners execute concurrently, total simulation
// workers stay within GOMAXPROCS.
func (s *Server) runner() {
	defer s.wg.Done()
	for job := range s.queue {
		s.depth.Add(-1)
		obsQueueDepth.Set(float64(s.depth.Load()))
		s.runJob(job)
	}
}

// runJob executes one job to a terminal state. The job context layers, from
// the outside in: the server root (Kill cancels it), the job's own cancel
// hook (DELETE and stream-disconnect call it), and the optional deadline.
func (s *Server) runJob(job *Job) {
	rn := job.takeRunnable()
	if reason := job.cancelReason(); reason != "" {
		// Cancelled while queued: never ran, still snapshots its terminal
		// state so a restart doesn't resurrect it.
		job.setState(StateCancelled, reason)
		obsCancelled.Inc()
		s.persist(job)
		return
	}
	var cctx context.Context
	var cancel context.CancelFunc
	if ms := job.Spec.DeadlineMS; ms > 0 {
		cctx, cancel = context.WithTimeout(s.root, time.Duration(ms)*time.Millisecond)
	} else {
		cctx, cancel = context.WithCancel(s.root)
	}
	defer cancel()
	job.setCancel(cancel)
	job.setState(StateRunning, "")
	obsRunning.Add(1)
	start := time.Now()
	defer func() {
		obsRunning.Add(-1)
		obsJobSeconds.Observe(time.Since(start).Seconds())
	}()

	err := s.evaluate(cctx, job, rn)
	switch {
	case err == nil:
		job.finish(rn)
		obsCompleted.Inc()
	case s.killed.Load():
		// Crash-style shutdown: leave the last periodic snapshot as the
		// job's durable state — exactly what a kill -9 would have — so the
		// next daemon resumes from it. No terminal write.
		job.setState(StateCancelled, "server killed")
		obsCancelled.Inc()
		return
	case errors.Is(err, context.DeadlineExceeded):
		job.setState(StateFailed, "deadline exceeded")
		obsFailed.Inc()
	case errors.Is(err, context.Canceled):
		reason := job.cancelReason()
		if reason == "" {
			reason = "cancelled"
		}
		job.setState(StateCancelled, reason)
		obsCancelled.Inc()
	default:
		job.setState(StateFailed, err.Error())
		obsFailed.Inc()
	}
	s.persist(job)
}

// evaluate runs the job's remaining units over the shared worker budget,
// appending rows and snapshotting every SnapshotEvery completions. Units
// already restored from a snapshot are skipped — their rows are already in
// place, and re-running them would only reproduce the same bits.
func (s *Server) evaluate(cctx context.Context, job *Job, rn *runnable) error {
	pctx := rn.pctx
	pctx.Cache = protocol.NewCacheScope(cacheBudget(job.Spec.CacheBytes))
	pctx.Cache.AttachDisk(s.disk)
	defer pctx.Cache.Drop()
	rn.pctx = pctx

	baselines, factories, err := rn.measureBaselines(cctx, pctx)
	if err != nil {
		return err
	}
	var todo []int
	for i := 0; i < rn.units; i++ {
		if job.row(i) == nil {
			todo = append(todo, i)
		}
	}
	err = protocol.ForEach(len(todo), func(k int) error {
		if err := cctx.Err(); err != nil {
			return err
		}
		row, err := rn.shard(cctx, todo[k], baselines, factories)
		if err != nil {
			return err
		}
		n := job.appendRow(row)
		if s.opts.SnapshotEvery > 0 && n%s.opts.SnapshotEvery == 0 {
			s.persist(job)
		}
		return nil
	})
	return err
}

// cacheBudget clamps a requested per-job cache budget to
// protocol.DefaultMemoBytes, each job's cap.
func cacheBudget(requested int64) int64 {
	if requested <= 0 || requested > protocol.DefaultMemoBytes {
		return protocol.DefaultMemoBytes
	}
	return requested
}

// persist writes the job's current snapshot, if snapshots are enabled.
// Snapshot failures are recorded in metrics but do not fail the job: the
// service degrades to non-durable rather than refusing work.
func (s *Server) persist(job *Job) {
	if s.opts.SnapshotDir == "" {
		return
	}
	if err := job.saveSnapshot(s.opts.SnapshotDir); err == nil {
		obsSnapshots.Inc()
	}
}
