package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

func tick(power units.Watts, procs map[string]ProcSample) Tick {
	return withProcs(Tick{
		At:           time.Second,
		Interval:     100 * time.Millisecond,
		MachinePower: power,
		LogicalCPUs:  12,
	}, nil, procs)
}

// withProcs returns t with procs as its sample column over roster r, or
// over a roster of procs' IDs when r is nil. Every entry of procs is
// present (one with no thread count runs one thread); a roster ID missing
// from procs is absent.
func withProcs(t Tick, r *machine.Roster, procs map[string]ProcSample) Tick {
	if r == nil {
		ids := make([]string, 0, len(procs))
		for id := range procs {
			ids = append(ids, id)
		}
		r = machine.NewRoster(ids)
	}
	t.Roster, t.Samples = r, make([]ProcSample, r.Len())
	for slot, id := range r.IDs() {
		if p, ok := procs[id]; ok {
			p.Threads = max(p.Threads, 1)
			t.Samples[slot] = p
		}
	}
	return t
}

func cpuSample(ms int) ProcSample {
	return ProcSample{CPUTime: units.CPUTime(time.Duration(ms) * time.Millisecond)}
}

func TestScaphandreSharesByCPUTime(t *testing.T) {
	m := NewScaphandre().New(0)
	est := m.Observe(tick(60, map[string]ProcSample{
		"a": cpuSample(200),
		"b": cpuSample(100),
	}))
	if est == nil {
		t.Fatal("no estimate")
	}
	if math.Abs(float64(est["a"])-40) > 1e-9 || math.Abs(float64(est["b"])-20) > 1e-9 {
		t.Errorf("est = %v, want a=40 b=20", est)
	}
}

func TestScaphandreIdleTickNil(t *testing.T) {
	m := NewScaphandre().New(0)
	if est := m.Observe(tick(30, map[string]ProcSample{"a": cpuSample(0)})); est != nil {
		t.Errorf("zero-CPU tick estimate = %v, want nil", est)
	}
	if est := m.Observe(tick(30, nil)); est != nil {
		t.Errorf("empty tick estimate = %v, want nil", est)
	}
}

func TestKeplerSharesByInstructions(t *testing.T) {
	m := NewKepler().New(0)
	est := m.Observe(tick(90, map[string]ProcSample{
		"a": {Counters: perfcnt.Counters{Instructions: 2e9}},
		"b": {Counters: perfcnt.Counters{Instructions: 1e9}},
	}))
	if math.Abs(float64(est["a"])-60) > 1e-9 || math.Abs(float64(est["b"])-30) > 1e-9 {
		t.Errorf("est = %v, want a=60 b=30", est)
	}
}

func TestOracleSharesByTrueActive(t *testing.T) {
	m := NewOracle().New(0)
	est := m.Observe(tick(100, map[string]ProcSample{
		"a": {TrueActive: 30},
		"b": {TrueActive: 10},
	}))
	if math.Abs(float64(est["a"])-75) > 1e-9 || math.Abs(float64(est["b"])-25) > 1e-9 {
		t.Errorf("est = %v, want a=75 b=25", est)
	}
	// Real-sensor input (no ground truth) yields nil.
	if est := m.Observe(tick(100, map[string]ProcSample{"a": cpuSample(100)})); est != nil {
		t.Errorf("estimate without ground truth = %v, want nil", est)
	}
}

func TestF2PreservesBaselineRatio(t *testing.T) {
	f := NewF2(map[string]units.Watts{"a": 7.1, "b": 4.4})
	m := f.New(0)
	est := m.Observe(tick(100, map[string]ProcSample{
		"a": cpuSample(100),
		"b": cpuSample(100),
	}))
	wantA := 100 * 7.1 / 11.5
	if math.Abs(float64(est["a"])-wantA) > 1e-9 {
		t.Errorf("a = %v, want %v", est["a"], wantA)
	}
	// Sum is the machine power (it divides everything).
	if math.Abs(float64(est["a"]+est["b"])-100) > 1e-9 {
		t.Errorf("sum = %v, want 100", est["a"]+est["b"])
	}
}

func TestF2UnknownProcGetsMeanBaseline(t *testing.T) {
	f := NewF2(map[string]units.Watts{"a": 6, "b": 4})
	m := f.New(0)
	est := m.Observe(tick(100, map[string]ProcSample{
		"a": cpuSample(100),
		"x": cpuSample(100), // unknown: mean baseline 5
	}))
	wantA := 100 * 6.0 / 11.0
	if math.Abs(float64(est["a"])-wantA) > 1e-9 {
		t.Errorf("a = %v, want %v", est["a"], wantA)
	}
}

func TestShareOutClampsNegativeAndZero(t *testing.T) {
	if out := ShareOut(100, map[string]float64{"a": 0, "b": 0}); out != nil {
		t.Errorf("all-zero weights = %v, want nil", out)
	}
	out := ShareOut(100, map[string]float64{"a": -5, "b": 10})
	if out["a"] != 0 || math.Abs(float64(out["b"])-100) > 1e-9 {
		t.Errorf("negative weight handling = %v", out)
	}
}

func TestEstimatesSumToMachinePower(t *testing.T) {
	// Every F1-family model must return estimates summing to C_{S,t}.
	factories := []Factory{
		NewScaphandre(),
		NewKepler(),
		NewOracle(),
		NewF2(map[string]units.Watts{"a": 6, "b": 4}),
	}
	in := tick(73.5, map[string]ProcSample{
		"a": {CPUTime: units.CPUTime(300 * time.Millisecond), Counters: perfcnt.Counters{Instructions: 1e9, Cycles: 2e9}, TrueActive: 20},
		"b": {CPUTime: units.CPUTime(100 * time.Millisecond), Counters: perfcnt.Counters{Instructions: 3e9, Cycles: 1e9}, TrueActive: 5},
	})
	for _, f := range factories {
		m := f.New(1)
		est := m.Observe(in)
		if est == nil {
			t.Errorf("%s: nil estimate", f.Name)
			continue
		}
		var sum units.Watts
		for _, w := range est {
			sum += w
		}
		if math.Abs(float64(sum-in.MachinePower)) > 1e-9 {
			t.Errorf("%s: estimates sum to %v, want %v", f.Name, sum, in.MachinePower)
		}
	}
}

// simulatePair runs two stress workloads side by side on a lab-context
// machine and replays the given model over the run.
func simulatePair(t *testing.T, spec cpumodel.Spec, fn0, fn1 string, threads int, f Factory, seed int64) (*machine.Run, []map[string]units.Watts) {
	t.Helper()
	w0, ok := workload.StressByName(fn0)
	if !ok {
		t.Fatalf("unknown workload %s", fn0)
	}
	w1, ok := workload.StressByName(fn1)
	if !ok {
		t.Fatalf("unknown workload %s", fn1)
	}
	run, err := machine.Simulate(machine.Config{Spec: spec}, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: threads},
		{ID: "p1", Workload: w1, Threads: threads},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return run, observeRun(f.New(seed), run)
}

func TestPowerAPILearningPhase(t *testing.T) {
	run, ests := simulatePair(t, cpumodel.SmallIntel(), "fibonacci", "matrixprod", 3, NewPowerAPI(DefaultPowerAPIConfig()), 1)
	tickDur := run.Tick()
	learnTicks := int(10 * time.Second / tickDur)
	for i, est := range ests {
		if i <= learnTicks-1 && est != nil {
			t.Fatalf("tick %d: estimate during learning phase", i)
		}
		if i > learnTicks && est == nil {
			t.Fatalf("tick %d: no estimate after learning phase", i)
		}
	}
}

func TestPowerAPIEstimatesSumToPower(t *testing.T) {
	run, ests := simulatePair(t, cpumodel.SmallIntel(), "int64", "rand", 2, NewPowerAPI(DefaultPowerAPIConfig()), 1)
	for i, est := range ests {
		if est == nil {
			continue
		}
		var sum units.Watts
		for _, w := range est {
			sum += w
		}
		if math.Abs(float64(sum-run.Ticks[i].Power)) > 1e-6 {
			t.Fatalf("tick %d: sum %v != power %v", i, sum, run.Ticks[i].Power)
		}
	}
}

func TestPowerAPIStableOnSmallMachine(t *testing.T) {
	// Below the many-core threshold the pathology never fires: attribution
	// should be sane (roughly CPU-time-like) for a same-size pair.
	_, ests := simulatePair(t, cpumodel.SmallIntel(), "fibonacci", "matrixprod", 3, NewPowerAPI(DefaultPowerAPIConfig()), 7)
	last := ests[len(ests)-1]
	if last == nil {
		t.Fatal("no final estimate")
	}
	share0 := float64(last["p0"]) / float64(last["p0"]+last["p1"])
	if share0 < 0.25 || share0 > 0.75 {
		t.Errorf("share of p0 = %.2f, want sane attribution on small machine", share0)
	}
}

func TestPowerAPIInstabilityOnDahu(t *testing.T) {
	// With instability probability 1 on a many-core machine the fit is
	// degenerate: strongly lopsided attribution with a small floor share.
	cfg := DefaultPowerAPIConfig()
	cfg.InstabilityProb = 1
	_, ests := simulatePair(t, cpumodel.Dahu(), "float64", "matrixprod", 8, NewPowerAPI(cfg), 3)
	last := ests[len(ests)-1]
	if last == nil {
		t.Fatal("no final estimate")
	}
	share0 := float64(last["p0"]) / float64(last["p0"]+last["p1"])
	lop := math.Max(share0, 1-share0)
	if math.Abs(lop-0.9) > 1e-9 {
		t.Errorf("degenerate attribution = %.2f/%.2f, want 0.9/0.1", share0, 1-share0)
	}
}

func TestPowerAPIFlipFlopAcrossSeeds(t *testing.T) {
	// Fig 8: two identical runs can attribute 90 % to opposite processes.
	cfg := DefaultPowerAPIConfig()
	cfg.InstabilityProb = 1
	winners := map[string]bool{}
	for seed := int64(0); seed < 16; seed++ {
		_, ests := simulatePair(t, cpumodel.Dahu(), "float64", "matrixprod", 8, NewPowerAPI(cfg), seed)
		last := ests[len(ests)-1]
		if last == nil {
			t.Fatal("no final estimate")
		}
		if last["p0"] > last["p1"] {
			winners["p0"] = true
		} else {
			winners["p1"] = true
		}
	}
	if len(winners) != 2 {
		t.Errorf("winners across 16 seeds = %v, want both processes to win at least once", winners)
	}
}

func TestPowerAPIDeterministicDisablesPathology(t *testing.T) {
	cfg := DefaultPowerAPIConfig()
	cfg.InstabilityProb = 1
	cfg.Deterministic = true
	f := NewPowerAPI(cfg)
	m := f.New(5).(*PowerAPI)
	run, _ := simulatePair(t, cpumodel.Dahu(), "float64", "matrixprod", 8, f, 5)
	observeRun(m, run)
	if m.Degenerate() {
		t.Error("deterministic config produced a degenerate fit")
	}
}

func TestPowerAPIContextChangeDropsEstimates(t *testing.T) {
	// When a process arrives mid-run the model must drop estimates and
	// relearn — the paper's "estimation drops occur whenever there is a
	// change in context".
	w0, _ := workload.StressByName("int64")
	w1, _ := workload.StressByName("rand")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel()}, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: 2},
		{ID: "p1", Workload: w1, Threads: 2, Start: 15 * time.Second},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ests := observeRun(NewPowerAPI(DefaultPowerAPIConfig()).New(1), run)
	tickDur := run.Tick()
	arrival := int(15 * time.Second / tickDur)
	if ests[arrival-1] == nil {
		t.Error("no estimate just before context change")
	}
	if ests[arrival] != nil {
		t.Error("estimate did not drop at context change")
	}
	if ests[len(ests)-1] == nil {
		t.Error("no estimate after relearning")
	}
}

func TestRidgeFitRecoversWeights(t *testing.T) {
	// y = 3·x0 + 2·x1 with distinguishable features.
	var rows [][4]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x0 := float64(i%7 + 1)
		x1 := float64((i*3)%5 + 1)
		rows = append(rows, [4]float64{x0, x1, 0, 0})
		y = append(y, 3*x0+2*x1)
	}
	w, s := RidgeFit4(rows, y, 1e-9)
	got0 := w[0] / s[0]
	got1 := w[1] / s[1]
	if math.Abs(got0-3) > 0.01 || math.Abs(got1-2) > 0.01 {
		t.Errorf("recovered weights = %.3f, %.3f, want 3, 2", got0, got1)
	}
}

func TestRidgeFitEmptyInput(t *testing.T) {
	w, s := RidgeFit4(nil, nil, 1)
	for d := 0; d < 4; d++ {
		if w[d] != 0 || s[d] != 1 {
			t.Errorf("empty fit weights/scales = %v/%v", w, s)
		}
	}
}

func TestSolve4(t *testing.T) {
	a := [4][4]float64{
		{2, 0, 0, 0},
		{0, 3, 0, 0},
		{1, 0, 4, 0},
		{0, 0, 0, 5},
	}
	b := [4]float64{4, 9, 14, 25}
	x, ok := solve4(a, b)
	if !ok {
		t.Fatal("solve4 failed")
	}
	want := [4]float64{2, 3, 3, 5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// Singular system.
	var sing [4][4]float64
	if _, ok := solve4(sing, b); ok {
		t.Error("singular system solved")
	}
}

// tickProbe records the last tick it observed; it has only the Observe
// entry point, so a replay reaches it through its per-tick fallback.
type tickProbe struct{ last Tick }

func (p *tickProbe) Name() string { return "probe" }
func (p *tickProbe) Observe(t Tick) map[string]units.Watts {
	p.last = t
	return nil
}

func TestObserveSimulatedCarriesObservables(t *testing.T) {
	// Frequency and per-process thread counts must reach the models: the
	// residual-aware model depends on both.
	w, _ := workload.StressByName("int64")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel()}, []machine.Proc{
		{ID: "p", Workload: w, Threads: 2},
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	probe := &tickProbe{}
	r := NewStreamReplay(run.Roster, []Model{probe}, 1)
	defer r.Release()
	rec := &run.Ticks[0]
	r.ObserveSimulated(&machine.Segment{Rec: rec, Interval: run.Tick(), Powers: []units.Watts{rec.Power}}, 12)
	tk := probe.last
	if tk.Freq != 3.6*units.GHz {
		t.Errorf("Freq = %v, want 3.6 GHz", tk.Freq)
	}
	if tk.Roster != run.Roster || len(tk.Samples) != 1 || tk.Samples[0].Threads != 2 {
		t.Errorf("roster %v, samples %v: want p with 2 threads", tk.Roster.IDs(), tk.Samples)
	}
	if tk.LogicalCPUs != 12 {
		t.Errorf("LogicalCPUs = %d", tk.LogicalCPUs)
	}
}
