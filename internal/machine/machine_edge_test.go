package machine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// scripted builds a single-phase scripted workload.
func scripted(name string, d time.Duration, threads int, intensity, util float64) workload.Workload {
	return workload.Workload{
		Name: name,
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6},
		Script: []workload.Phase{
			{Duration: d, Threads: threads, Intensity: intensity, Util: util},
		},
	}
}

func TestPhaseThreadsCappedByProcThreads(t *testing.T) {
	// A phase wanting 6 threads on a 2-thread process uses 2.
	cfg := labConfig(cpumodel.SmallIntel())
	w := scripted("wide", 2*time.Second, 6, 1, 1)
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 2}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pt, _ := run.ProcAt(0, "p"); pt.Threads != 2 {
		t.Errorf("busy threads = %d, want 2 (proc ceiling)", pt.Threads)
	}
}

func TestPhaseIntensityScalesActivePower(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	full, err := Simulate(cfg, []Proc{{ID: "p", Workload: scripted("full", time.Second, 2, 1.0, 1), Threads: 2}}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Simulate(cfg, []Proc{{ID: "p", Workload: scripted("half", time.Second, 2, 0.5, 1), Threads: 2}}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fa := full.ActiveSeries().Mean()
	ha := half.ActiveSeries().Mean()
	if math.Abs(ha-fa/2) > 1e-9 {
		t.Errorf("half-intensity active = %v, want %v", ha, fa/2)
	}
	// Intensity does not change CPU time.
	if full.ProcCPUSeries("p").Mean() != half.ProcCPUSeries("p").Mean() {
		t.Error("intensity changed CPU accounting")
	}
}

func TestSMTSiblingOnlyWhenPrimaryBusy(t *testing.T) {
	// A thread pinned to a sibling logical CPU whose primary is idle is a
	// full core, not a discounted sibling.
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.Turbo = false
	w, _ := workload.StressByName("int64")
	onSibling := Proc{ID: "p", Workload: w, Threads: 1, Pinned: []int{7}} // sibling of core 1
	run, err := Simulate(cfg, []Proc{onSibling}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Full per-core cost: 6.15 W, not 30 % of it.
	if got := run.ProcActiveSeries("p").Mean(); math.Abs(got-6.15) > 1e-9 {
		t.Errorf("lone sibling active = %v, want 6.15", got)
	}
	// Now with the primary busy too, the sibling gets the discount.
	both := []Proc{
		{ID: "a", Workload: w, Threads: 1, Pinned: []int{1}},
		{ID: "b", Workload: w, Threads: 1, Pinned: []int{7}},
	}
	run2, err := Simulate(cfg, both, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := run2.ProcActiveSeries("b").Mean(); math.Abs(got-6.15*0.3) > 1e-9 {
		t.Errorf("paired sibling active = %v, want %v", got, 6.15*0.3)
	}
	if got := run2.ProcActiveSeries("a").Mean(); math.Abs(got-6.15) > 1e-9 {
		t.Errorf("primary active = %v, want 6.15", got)
	}
}

func TestNoiseIsZeroMeanAndBounded(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	cfg.NoiseStddev = 0.25
	cfg.Seed = 99
	w, _ := workload.StressByName("int64")
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 2}}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	noisy := run.PowerSeries().Mean()
	truth := run.TruePowerSeries().Mean()
	if math.Abs(noisy-truth) > 0.05 {
		t.Errorf("noise mean offset = %v, want ≈0", noisy-truth)
	}
	power := run.PowerSeries()
	spread := power.Max() - power.Min()
	if spread < 0.5 || spread > 3 {
		t.Errorf("noise spread = %v, want ≈4σ ≈ 1-2 W", spread)
	}
}

func TestMultiPhaseScriptTransitions(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	w := workload.Workload{
		Name: "twophase",
		Kind: workload.App,
		Mix:  workload.CounterMix{IPC: 1},
		Cost: map[string]units.Watts{"SMALL INTEL": 6},
		Script: []workload.Phase{
			{Duration: time.Second, Threads: 3, Intensity: 1, Util: 1},
			{Duration: time.Second, Threads: 1, Intensity: 1, Util: 1},
		},
	}
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 3}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// phaseMean averages the process's active power sampled in [from, to).
	phaseMean := func(from, to time.Duration) float64 {
		var sum float64
		n := 0
		for _, sm := range run.ProcActiveSeries("p").Samples() {
			if sm.At >= from && sm.At < to {
				sum += sm.Value
				n++
			}
		}
		return sum / float64(n)
	}
	firstPhase := phaseMean(0, time.Second)
	secondPhase := phaseMean(time.Second, 2*time.Second)
	if math.Abs(firstPhase-18) > 1e-9 || math.Abs(secondPhase-6) > 1e-9 {
		t.Errorf("phase powers = %v/%v, want 18/6", firstPhase, secondPhase)
	}
	if run.ProcEnd["p"] != 2*time.Second {
		t.Errorf("ProcEnd = %v, want 2s", run.ProcEnd["p"])
	}
}

func TestTickConfigurable(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	cfg.Tick = time.Second
	w, _ := workload.StressByName("int64")
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 1}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Ticks) != 5 {
		t.Errorf("%d ticks at 1s for 5s, want 5", len(run.Ticks))
	}
	if run.Tick() != time.Second {
		t.Errorf("Tick() = %v", run.Tick())
	}
	// Energy is invariant to tick size for constant loads.
	fine := labConfig(cpumodel.SmallIntel())
	fine.Tick = 50 * time.Millisecond
	run2, err := Simulate(fine, []Proc{{ID: "p", Workload: w, Threads: 1}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(run.Energy()-run2.Energy())) > 1e-6*float64(run.Energy()) {
		t.Errorf("energy differs across tick sizes: %v vs %v", run.Energy(), run2.Energy())
	}
}

func TestProcSeriesEmptyForUnknownID(t *testing.T) {
	cfg := labConfig(cpumodel.SmallIntel())
	w, _ := workload.StressByName("int64")
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 1}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.ProcActiveSeries("ghost").Len() != 0 {
		t.Error("series for unknown process not empty")
	}
	if run.ProcCPUSeries("ghost").Len() != 0 {
		t.Error("CPU series for unknown process not empty")
	}
}

func TestUnpinnedPhysicalFirstPlacement(t *testing.T) {
	// With HT on and 6 threads on SMALL INTEL, all land on physical cores
	// (no SMT discount) — physical-first placement.
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.Turbo = false
	w, _ := workload.StressByName("int64")
	run, err := Simulate(cfg, []Proc{{ID: "p", Workload: w, Threads: 6}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.ProcActiveSeries("p").Mean(); math.Abs(got-6*6.15) > 1e-9 {
		t.Errorf("6-thread active = %v, want %v (no SMT discount)", got, 6*6.15)
	}
}

// Property: for random feasible scenarios, the scheduler conserves demand
// (every requested thread gets exactly one CPU-tick of placement) and the
// power decomposition matches the per-process ground truth sum.
func TestSchedulerConservationProperty(t *testing.T) {
	fns := workload.StressNames()
	check := func(seed int64, n1, n2, n3 uint8) bool {
		cfg := prodConfig(cpumodel.SmallIntel())
		cfg.Seed = seed
		threads := []int{int(n1%4) + 1, int(n2%4) + 1, int(n3%4) + 1} // ≤ 12 total
		var procs []Proc
		for i, n := range threads {
			idx := int(uint64(seed)%uint64(len(fns))+uint64(i*5)) % len(fns)
			w, _ := workload.StressByName(fns[idx])
			procs = append(procs, Proc{ID: fmt.Sprintf("p%d", i), Workload: w, Threads: n})
		}
		run, err := Simulate(cfg, procs, time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for ti, rec := range run.Ticks {
			var cpuSum float64
			var activeSum units.Watts
			for i, p := range procs {
				pt, ok := run.ProcAt(ti, p.ID)
				if !ok {
					t.Fatalf("missing proc %s", p.ID)
				}
				// Demand conservation: full-load stress gets all threads.
				if got := pt.CPUTime.Utilization(run.Tick()); math.Abs(got-float64(threads[i])) > 1e-9 {
					t.Fatalf("proc %s placed %.2f cores, want %d", p.ID, got, threads[i])
				}
				cpuSum += pt.CPUTime.Seconds()
				activeSum += pt.ActivePower
			}
			if math.Abs(float64(activeSum-rec.Active)) > 1e-9 {
				t.Fatalf("per-proc active %v != machine active %v", activeSum, rec.Active)
			}
			wantCPU := float64(threads[0]+threads[1]+threads[2]) * run.Tick().Seconds()
			if math.Abs(cpuSum-wantCPU) > 1e-9 {
				t.Fatalf("cpu time %v != demand %v", cpuSum, wantCPU)
			}
		}
		return true
	}
	f := func(seed int64, n1, n2, n3 uint8) bool { return check(seed, n1, n2, n3) }
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Fair placement: when demand spills onto SMT siblings, every process with
// multiple threads shares the discount rather than one process absorbing
// it all.
func TestFairSMTPlacement(t *testing.T) {
	cfg := prodConfig(cpumodel.SmallIntel())
	cfg.Turbo = false
	w, _ := workload.StressByName("int64")
	// Two 4-thread processes on 6 physical cores: 2 threads must be
	// siblings, one from each process under fair placement.
	run, err := Simulate(cfg, []Proc{
		{ID: "a", Workload: w, Threads: 4},
		{ID: "b", Workload: w, Threads: 4},
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pta, _ := run.ProcAt(0, "a")
	ptb, _ := run.ProcAt(0, "b")
	pa := float64(pta.ActivePower)
	pb := float64(ptb.ActivePower)
	if math.Abs(pa-pb) > 1e-9 {
		t.Errorf("identical processes got unequal active power: %.3f vs %.3f", pa, pb)
	}
	// Each should have 3 physical + 1 sibling: 3×6.15 + 0.3×6.15.
	want := 3*6.15 + 0.3*6.15
	if math.Abs(pa-want) > 1e-9 {
		t.Errorf("per-proc active = %.3f, want %.3f", pa, want)
	}
}
