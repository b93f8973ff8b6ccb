package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// TestPowerAPIConvergesOnLinearMachine feeds a deterministic PowerAPI a
// synthetic machine whose power is exactly linear in the aggregate cycle
// rate (P = k·cycles/s, no noise, varying load so the regression is
// identifiable) and asserts the learning window behaves as specified:
//
//   - no estimates until LearnWindow has elapsed;
//   - once fitted, the calibration has converged: the fitted weights
//     reproduce the machine power from the features to within 2 %;
//   - estimates sum to the machine power and split in cycle proportion.
func TestPowerAPIConvergesOnLinearMachine(t *testing.T) {
	const (
		interval    = 100 * time.Millisecond
		kWattsPerHz = 10e-9 // 10 W per GHz of aggregate cycles
	)
	cfg := DefaultPowerAPIConfig()
	cfg.Deterministic = true
	m := NewPowerAPI(cfg).New(1).(*PowerAPI)

	// Load varies tick to tick so the single-feature regression sees more
	// than one operating point.
	cyclesAt := func(i int, id string) float64 {
		base := 1e8 + 5e7*float64(i%7) // per-interval cycles, 1.0–1.3e9/s as rate
		if id == "b" {
			base *= 0.5
		}
		return base
	}
	roster := machine.NewRoster([]string{"a", "b"})
	makeTick := func(i int) Tick {
		procs := map[string]ProcSample{}
		var agg float64
		for _, id := range []string{"a", "b"} {
			c := cyclesAt(i, id)
			agg += c
			procs[id] = ProcSample{
				CPUTime:  units.CPUTime(50 * time.Millisecond),
				Counters: perfcnt.Counters{Cycles: c},
			}
		}
		rate := agg / interval.Seconds()
		return withProcs(Tick{
			At:           time.Duration(i) * interval,
			Interval:     interval,
			MachinePower: units.Watts(kWattsPerHz * rate),
			LogicalCPUs:  12,
		}, roster, procs)
	}

	var firstEstimate time.Duration = -1
	for i := 1; i <= 150; i++ {
		tk := makeTick(i)
		est := m.Observe(tk)
		within := tk.At-time.Duration(1)*interval < cfg.LearnWindow
		if est == nil {
			if !within {
				t.Fatalf("tick at %v: no estimate after the %v learning window", tk.At, cfg.LearnWindow)
			}
			continue
		}
		if within {
			t.Fatalf("tick at %v: estimate %v during the learning window", tk.At, est)
		}
		if firstEstimate < 0 {
			firstEstimate = tk.At
		}
		var sum float64
		for _, w := range est {
			sum += float64(w)
		}
		if math.Abs(sum-float64(tk.MachinePower)) > 1e-6 {
			t.Fatalf("tick at %v: estimates sum to %v, machine power %v", tk.At, sum, tk.MachinePower)
		}
		wantShareA := cyclesAt(i, "a") / (cyclesAt(i, "a") + cyclesAt(i, "b"))
		gotShareA := float64(est["a"]) / sum
		if math.Abs(gotShareA-wantShareA) > 1e-6 {
			t.Fatalf("tick at %v: share(a) = %v, want cycle share %v", tk.At, gotShareA, wantShareA)
		}
	}
	if firstEstimate < 0 {
		t.Fatal("model never produced an estimate")
	}
	if m.Degenerate() {
		t.Fatal("deterministic config produced a degenerate calibration")
	}

	// Convergence of the calibration itself: the fitted weight applied to a
	// fresh feature vector must reproduce the linear machine's power.
	for _, aggRate := range []float64{1.5e9, 3e9, 6e9} {
		pred := m.weights[0] * aggRate / m.scales[0]
		want := kWattsPerHz * aggRate
		if math.Abs(pred-want) > 0.02*want {
			t.Errorf("fit predicts %.2f W at %.1e cycles/s, want %.2f W (±2%%)", pred, aggRate, want)
		}
	}
}

// TestPowerAPIRelearnsAfterContextChange asserts the learning window
// restarts when the process set changes: estimates stop for LearnWindow
// after the change, then resume.
func TestPowerAPIRelearnsAfterContextChange(t *testing.T) {
	cfg := DefaultPowerAPIConfig()
	cfg.Deterministic = true
	cfg.LearnWindow = 2 * time.Second
	m := NewPowerAPI(cfg).New(1)

	const interval = 100 * time.Millisecond
	roster := machine.NewRoster([]string{"a", "b", "c"})
	mk := func(i int, ids ...string) Tick {
		procs := map[string]ProcSample{}
		for _, id := range ids {
			procs[id] = ProcSample{
				CPUTime:  units.CPUTime(50 * time.Millisecond),
				Counters: perfcnt.Counters{Cycles: 2e8},
			}
		}
		return withProcs(Tick{
			At: time.Duration(i) * interval, Interval: interval,
			MachinePower: 40, LogicalCPUs: 12,
		}, roster, procs)
	}
	sawBefore := false
	for i := 1; i <= 40; i++ {
		if m.Observe(mk(i, "a", "b")) != nil {
			sawBefore = true
		}
	}
	if !sawBefore {
		t.Fatal("no estimates before the context change")
	}
	gap, resumed := 0, false
	for i := 41; i <= 90; i++ {
		if m.Observe(mk(i, "a", "c")) == nil {
			if resumed {
				t.Fatalf("tick %d: estimates stopped again after resuming", i)
			}
			gap++
		} else {
			resumed = true
		}
	}
	// 2 s window at 100 ms ticks: the model drops estimates for ~20 ticks.
	if !resumed || gap < 15 {
		t.Errorf("context change: %d dropped ticks (resumed=%v), want a ~20-tick relearning gap", gap, resumed)
	}
}
