package models

import (
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

func simulateRun(t *testing.T, spec cpumodel.Spec, procs []machine.Proc, dur time.Duration) *machine.Run {
	t.Helper()
	run, err := machine.Simulate(machine.Config{Spec: spec}, procs, dur)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func pairProcs(t *testing.T, fn0, fn1 string, threads int) []machine.Proc {
	t.Helper()
	w0, ok := workload.StressByName(fn0)
	if !ok {
		t.Fatalf("unknown workload %s", fn0)
	}
	w1, ok := workload.StressByName(fn1)
	if !ok {
		t.Fatalf("unknown workload %s", fn1)
	}
	return []machine.Proc{
		{ID: "p0", Workload: w0, Threads: threads},
		{ID: "p1", Workload: w1, Threads: threads},
	}
}

// mapOnlyModel divides power evenly among present processes through
// Observe only — it deliberately does not implement DenseModel.
type mapOnlyModel struct{}

func (mapOnlyModel) Name() string { return "maponly" }

func (mapOnlyModel) Observe(t Tick) map[string]units.Watts {
	out := map[string]units.Watts{}
	for slot, p := range t.Samples {
		if p.Present() {
			out[t.Roster.ID(slot)] = 0
		}
	}
	if len(out) == 0 {
		return nil
	}
	for id := range out {
		out[id] = t.MachinePower / units.Watts(len(out))
	}
	return out
}

// TestShareOutInto pins the in-place division kernel: weights in, shares
// out, negative weights clamped, and a no-positive-weight column refused
// exactly like ShareOut returning nil.
func TestShareOutInto(t *testing.T) {
	col := []units.Watts{1, 3, 0, -2}
	if !ShareOutInto(40, col) {
		t.Fatal("positive weights refused")
	}
	want := []units.Watts{10, 30, 0, 0}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("col[%d] = %v, want %v", i, col[i], want[i])
		}
	}
	zero := []units.Watts{0, -1, 0}
	if ShareOutInto(40, zero) {
		t.Error("no-positive-weight column accepted")
	}
	if ShareOutInto(40, nil) {
		t.Error("empty column accepted")
	}
}

// TestDenseEstimatesRowIsView pins slab ownership: Row returns a view into
// the shared slab, not a copy.
func TestDenseEstimatesRowIsView(t *testing.T) {
	run := simulateRun(t, cpumodel.SmallIntel(), pairProcs(t, "int64", "rand", 1), time.Second)
	dense := replayDense(NewScaphandre().New(1), run, denseTicks(run))
	if dense.Ticks() == 0 {
		t.Fatal("no ticks")
	}
	row := dense.Row(0)
	row[0] = 1234
	if dense.Slab[0] != 1234 {
		t.Error("Row(0) is not a slab view")
	}
}
