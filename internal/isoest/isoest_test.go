package isoest

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// linearSamples builds training data from an exactly linear power law so
// the round trip is checkable: power = 2e-9·cycles + 1e-9·instructions.
func linearSamples() []Sample {
	mixes := []struct {
		name        string
		cycles, ipc float64
	}{
		{"a", 3.6e9, 1.0},
		{"b", 3.6e9, 2.0},
		{"c", 3.6e9, 2.8},
		{"d", 3.6e9, 0.9},
		{"e", 3.6e9, 1.5},
	}
	var out []Sample
	for _, m := range mixes {
		instr := m.cycles * m.ipc
		out = append(out, Sample{
			Workload:      m.name,
			Rates:         perfcnt.Counters{Cycles: m.cycles, Instructions: instr, CacheRefs: instr / 500, Branches: instr / 10},
			ActivePerCore: units.Watts(2e-9*m.cycles + 1e-9*instr),
		})
	}
	return out
}

func TestTrainAndEstimateLinearLaw(t *testing.T) {
	samples := linearSamples()
	est, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Evaluate(samples); got > 0.01 {
		t.Errorf("in-sample error on a linear law = %.4f, want ≈0", got)
	}
	// An unseen mix obeying the same law predicts accurately.
	unseen := perfcnt.Counters{Cycles: 3.6e9, Instructions: 3.6e9 * 1.75, CacheRefs: 3.6e9 * 1.75 / 500, Branches: 3.6e9 * 1.75 / 10}
	want := 2e-9*3.6e9 + 1e-9*3.6e9*1.75
	if got := float64(est.Estimate(unseen)); math.Abs(got-want) > 0.05*want {
		t.Errorf("unseen prediction = %.3f, want %.3f", got, want)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty training accepted")
	}
	if _, err := Train(linearSamples()[:1]); err == nil {
		t.Error("single sample accepted")
	}
	bad := linearSamples()
	bad[0].ActivePerCore = 0
	if _, err := Train(bad); err == nil {
		t.Error("non-positive power accepted")
	}
}

func TestEstimateFloor(t *testing.T) {
	est, err := Train(linearSamples())
	if err != nil {
		t.Fatal(err)
	}
	// Zero rates predict the floor, never zero or negative.
	if got := est.Estimate(perfcnt.Counters{}); got < 0.1 {
		t.Errorf("floor = %v, want ≥0.1", got)
	}
}

func TestLeaveOneOut(t *testing.T) {
	samples := linearSamples()
	loo, err := LeaveOneOut(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(loo) != len(samples) {
		t.Fatalf("%d LOO entries, want %d", len(loo), len(samples))
	}
	// An exactly linear law is learnable from any 4 of the 5 samples.
	for name, e := range loo {
		if e > 0.05 {
			t.Errorf("LOO error for %s = %.4f, want ≈0", name, e)
		}
	}
}

func TestProfileF2Division(t *testing.T) {
	est, err := Train(linearSamples())
	if err != nil {
		t.Fatal(err)
	}
	m := NewProfileF2(est).New(0)
	if m.Name() != "profile-f2" {
		t.Errorf("name = %q", m.Name())
	}
	interval := 100 * time.Millisecond
	mk := func(cores float64, ipc float64) models.ProcSample {
		cpu := units.CPUTime(time.Duration(cores * float64(interval)))
		cycles := cpu.Seconds() * 3.6e9
		instr := cycles * ipc
		return models.ProcSample{
			CPUTime:  cpu,
			Threads:  int(cores),
			Counters: perfcnt.Counters{Cycles: cycles, Instructions: instr, CacheRefs: instr / 500, Branches: instr / 10},
		}
	}
	tick := models.Tick{
		At:           time.Second,
		Interval:     interval,
		MachinePower: 100,
		Roster:       machine.NewRoster([]string{"cold", "hot"}),
		Samples: []models.ProcSample{
			mk(2, 0.9),
			mk(2, 2.8), // per-core 2e-9·c+1e-9·i = 7.2+10.08 = 17.28 W... at 3.6GHz
		},
	}
	est2 := m.Observe(tick)
	if est2 == nil {
		t.Fatal("no estimate")
	}
	// Expected ratio: per-core powers at IPC 2.8 vs 0.9 with equal cores.
	hot := 2e-9*3.6e9 + 1e-9*3.6e9*2.8
	cold := 2e-9*3.6e9 + 1e-9*3.6e9*0.9
	wantHot := 100 * hot / (hot + cold)
	if math.Abs(float64(est2["hot"])-wantHot) > 1 {
		t.Errorf("hot = %v, want ≈%.2f", est2["hot"], wantHot)
	}
	// Estimates sum to machine power (F2 divides everything).
	if math.Abs(float64(est2["hot"]+est2["cold"])-100) > 1e-9 {
		t.Errorf("sum = %v, want 100", est2["hot"]+est2["cold"])
	}
}

func TestProfileF2IdleProcs(t *testing.T) {
	est, err := Train(linearSamples())
	if err != nil {
		t.Fatal(err)
	}
	m := NewProfileF2(est).New(0)
	out := m.Observe(models.Tick{
		At:           time.Second,
		Interval:     100 * time.Millisecond,
		MachinePower: 50,
		Roster:       machine.NewRoster([]string{"idle"}),
		Samples:      []models.ProcSample{{Threads: 1}},
	})
	if out != nil {
		t.Errorf("idle-only tick estimate = %v, want nil", out)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	est, err := Train(linearSamples())
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Evaluate(nil); got != 0 {
		t.Errorf("empty evaluate = %v", got)
	}
}
