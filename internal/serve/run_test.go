package serve

import (
	"testing"
)

// TestRunJobReleasesRunnable pins compile-once: a job carries the runnable
// admission compiled until its runner takes it, and a job that ran to done,
// failed or cancelled holds none — finished jobs retain no scenarios.
func TestRunJobReleasesRunnable(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, Options{})
	deadline := testSpec(8)
	deadline.WindowMS = maxDurationMS
	deadline.RunForMS = maxDurationMS
	deadline.StableWindowMS = 10000
	deadline.DeadlineMS = 1
	cases := []struct {
		name   string
		spec   SubmitRequest
		cancel bool
		want   State
	}{
		{"done", testSpec(2), false, StateDone},
		{"failed", deadline, false, StateFailed},
		{"cancelled", testSpec(2), true, StateCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rn, aerr := compile(tc.spec, s.opts)
			if aerr != nil {
				t.Fatal(aerr)
			}
			job := newJob("job-"+tc.name, tc.spec, rn)
			if job.rn != rn {
				t.Fatal("queued job does not carry its compiled runnable")
			}
			if tc.cancel {
				job.Cancel("test")
			}
			s.runJob(job)
			if st := job.State(); st != tc.want {
				t.Fatalf("job ended %s (%s), want %s", st, job.Status().Error, tc.want)
			}
			job.mu.Lock()
			held := job.rn
			job.mu.Unlock()
			if held != nil {
				t.Fatalf("%s job still holds its runnable", tc.want)
			}
		})
	}
}

// TestTerminalSnapshotHoldsNoRunnable pins the resume side: a job loaded
// from a terminal snapshot is never queued, so it keeps no runnable.
func TestTerminalSnapshotHoldsNoRunnable(t *testing.T) {
	t.Parallel()
	spec := testSpec(2)
	rn, aerr := compile(spec, Options{}.withDefaults())
	if aerr != nil {
		t.Fatal(aerr)
	}
	for _, st := range []State{StateQueued, StateFailed, StateCancelled} {
		job := jobFromSnapshot(Snapshot{JobID: "job-1", Kind: rn.kind, Fingerprint: rn.fingerprint, Spec: spec, State: st}, rn)
		if held := job.rn != nil; held != !st.Terminal() {
			t.Errorf("%s snapshot: job holds runnable = %v", st, held)
		}
	}
}
