package traffic

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/protocol"
)

// raceEnabled reports a race-detector build (see race_test.go), whose
// pools drop items at random.
var raceEnabled bool

// testConfig is a small, fast campaign exercising all three arrival shapes.
func testConfig(seed int64) Config {
	return Config{
		Kind:              Mixed,
		Seed:              seed,
		Scenarios:         9,
		Window:            10 * time.Second,
		ArrivalsPerMinute: 60, // dense enough that every shape produces churn
		MeanLifetime:      3 * time.Second,
		MaxThreads:        2,
		MaxCPUs:           6,
		Baseload:          2,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with the same config differ")
	}
	c, err := Generate(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestGenerateShapes(t *testing.T) {
	cfg := testConfig(3)
	scenarios, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != cfg.Scenarios {
		t.Fatalf("got %d scenarios, want %d", len(scenarios), cfg.Scenarios)
	}
	defaulted := cfg.WithDefaults()
	sawArrival, sawExit := false, false
	for i, s := range scenarios {
		if len(s.Apps) < defaulted.Baseload {
			t.Fatalf("scenario %d has %d instances, want ≥%d", i, len(s.Apps), defaulted.Baseload)
		}
		seen := map[string]bool{}
		for j, a := range s.Apps {
			if seen[a.ID] {
				t.Fatalf("scenario %d duplicates ID %s", i, a.ID)
			}
			seen[a.ID] = true
			if a.BaseID == "" {
				t.Fatalf("scenario %d instance %s has no BaseID", i, a.ID)
			}
			if j < defaulted.Baseload {
				if a.StartAt != 0 || a.StopAt != 0 || a.Threads != 1 {
					t.Fatalf("scenario %d baseload instance %s has lifetime %v..%v threads %d", i, a.ID, a.StartAt, a.StopAt, a.Threads)
				}
			}
			if a.StartAt < 0 || a.StartAt >= cfg.Window {
				t.Fatalf("scenario %d instance %s starts at %v outside the window", i, a.ID, a.StartAt)
			}
			if a.StopAt != 0 && a.StopAt <= a.StartAt {
				t.Fatalf("scenario %d instance %s stops at %v before start %v", i, a.ID, a.StopAt, a.StartAt)
			}
			if a.StartAt > 0 {
				sawArrival = true
			}
			if a.StopAt != 0 {
				sawExit = true
			}
		}
	}
	if !sawArrival || !sawExit {
		t.Fatalf("campaign exercised no churn: arrivals=%t exits=%t", sawArrival, sawExit)
	}
}

// TestGenerateCapacity asserts the contention-free invariant: at every
// instant the threads of alive instances fit MaxCPUs. Concurrency only
// increases at arrival instants, so checking at every StartAt covers all
// times; the test checks every start and stop boundary anyway.
func TestGenerateCapacity(t *testing.T) {
	cfg := testConfig(11)
	cfg.ArrivalsPerMinute = 600 // saturate so rejection actually engages
	scenarios, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		var events []time.Duration
		for _, a := range s.Apps {
			events = append(events, a.StartAt)
			if a.StopAt != 0 {
				events = append(events, a.StopAt-1)
			}
		}
		for _, at := range events {
			alive := 0
			for _, a := range s.Apps {
				if a.StartAt <= at && (a.StopAt == 0 || a.StopAt > at) {
					alive += a.Threads
				}
			}
			if alive > cfg.MaxCPUs {
				t.Fatalf("scenario %d oversubscribed at %v: %d threads on %d CPUs", i, at, alive, cfg.MaxCPUs)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Baseload: 1, MaxCPUs: 4, MaxThreads: 2, Kernels: []string{"fibonacci"}},
		{Baseload: 8, MaxCPUs: 4, MaxThreads: 2, Kernels: []string{"fibonacci"}},
		{Baseload: 2, MaxCPUs: 4, MaxThreads: 8, Kernels: []string{"fibonacci"}},
		{Baseload: 2, MaxCPUs: 4, MaxThreads: 2, Kernels: []string{"no-such-kernel"}},
	}
	for i, cfg := range bad {
		cfg.Scenarios, cfg.Window = 1, time.Second
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := KindByName("square-wave"); err == nil {
		t.Error("KindByName accepted an unknown kind")
	}
	for _, k := range []Kind{Poisson, Bursty, Diurnal, Mixed} {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
}

// TestEnergyConservation is the testing/quick property: for arbitrary
// generated schedules, the simulator's per-tick power decomposition is
// conserved — TruePower equals idle + residual + the per-instance active
// powers — so churn never creates or destroys energy.
func TestEnergyConservation(t *testing.T) {
	spec := cpumodel.SmallIntel()
	check := func(seed int64, kindSel uint8) bool {
		cfg := testConfig(seed)
		cfg.Kind = [...]Kind{Poisson, Bursty, Diurnal}[int(kindSel)%3]
		cfg.Scenarios = 1
		cfg.Window = 5 * time.Second
		scenarios, err := Generate(cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		s := scenarios[0]
		procs := make([]machine.Proc, len(s.Apps))
		for i, a := range s.Apps {
			procs[i] = machine.Proc{
				ID: a.ID, Workload: a.Workload, Threads: a.Threads,
				Start: a.StartAt, Stop: a.StopAt,
			}
		}
		run, err := machine.Simulate(machine.Config{Spec: spec, Seed: seed}, procs, cfg.Window)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range run.Ticks {
			rec := &run.Ticks[i]
			sum := float64(rec.Idle + rec.Residual)
			for _, pt := range rec.Procs {
				sum += float64(pt.ActivePower)
			}
			if diff := math.Abs(sum - float64(rec.TruePower)); diff > 1e-6*(1+math.Abs(float64(rec.TruePower))) {
				t.Logf("seed %d tick %d: decomposition sums to %v, TruePower %v", seed, i, sum, rec.TruePower)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRoundtrip(t *testing.T) {
	cfg := testConfig(5)
	scenarios, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(cfg, scenarios)
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decoding our own encoding: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("trace did not survive an encode/decode roundtrip")
	}
	if back.Window() != cfg.Window {
		t.Fatalf("trace window %v, want %v", back.Window(), cfg.Window)
	}
	replayed, err := back.ProtocolScenarios()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, scenarios) {
		t.Fatal("replayed scenarios differ from the generated originals")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	valid := func() Trace {
		cfg := testConfig(5)
		cfg.Scenarios = 1
		scenarios, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Record(cfg, scenarios)
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"wrong version", func(tr *Trace) { tr.Version = 2 }},
		{"no window", func(tr *Trace) { tr.WindowNS = 0 }},
		{"no scenarios", func(tr *Trace) { tr.Scenarios = nil }},
		{"empty roster", func(tr *Trace) { tr.Scenarios[0].Apps = nil }},
		{"empty ID", func(tr *Trace) { tr.Scenarios[0].Apps[0].ID = "" }},
		{"duplicate ID", func(tr *Trace) { tr.Scenarios[0].Apps[1].ID = tr.Scenarios[0].Apps[0].ID }},
		{"unknown kernel", func(tr *Trace) { tr.Scenarios[0].Apps[0].Kernel = "minesweeper" }},
		{"zero threads", func(tr *Trace) { tr.Scenarios[0].Apps[0].Threads = 0 }},
		{"start outside window", func(tr *Trace) { tr.Scenarios[0].Apps[0].StartNS = tr.WindowNS }},
		{"negative start", func(tr *Trace) { tr.Scenarios[0].Apps[0].StartNS = -1 }},
		{"stop before start", func(tr *Trace) {
			tr.Scenarios[0].Apps[0].StartNS = 5
			tr.Scenarios[0].Apps[0].StopNS = 4
		}},
	}
	for _, tc := range cases {
		tr := valid()
		tc.mutate(&tr)
		data, err := tr.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted the mutated trace", tc.name)
		}
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("Decode accepted truncated JSON")
	}
}

// TestZeroBaseload is the regression test for the Baseload sentinel: the
// zero value of Config still defaults to 2 always-on anchors, while
// NoBaseload yields schedules driven by arrivals alone that both generate
// and replay through a trace roundtrip.
func TestZeroBaseload(t *testing.T) {
	base := testConfig(31)
	base.Scenarios = 3
	base.ArrivalsPerMinute = 240 // dense enough that every scenario has arrivals

	defaulted := Config{}.WithDefaults()
	if defaulted.Baseload != defaultBaseload {
		t.Fatalf("zero-value Baseload defaulted to %d, want %d", defaulted.Baseload, defaultBaseload)
	}

	cfg := base
	cfg.Baseload = NoBaseload
	if got := cfg.WithDefaults().Baseload; got != 0 {
		t.Fatalf("NoBaseload defaulted to %d, want 0", got)
	}
	scenarios, err := Generate(cfg)
	if err != nil {
		t.Fatalf("zero-baseload Generate: %v", err)
	}
	for i, s := range scenarios {
		if len(s.Apps) == 0 {
			t.Fatalf("scenario %d generated no arrivals at %v arrivals/min", i, cfg.ArrivalsPerMinute)
		}
		// Every instance must be an arrival: before the fix, WithDefaults
		// silently re-inserted two always-on anchors at t=0.
		for _, a := range s.Apps {
			if a.StartAt == 0 {
				t.Fatalf("scenario %d instance %s starts at 0: baseload sneaked back in", i, a.ID)
			}
		}
	}

	tr := Record(cfg, scenarios)
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("zero-baseload trace rejected on decode: %v", err)
	}
	replayed, err := back.ProtocolScenarios()
	if err != nil {
		t.Fatalf("zero-baseload trace failed to replay: %v", err)
	}
	if !reflect.DeepEqual(replayed, scenarios) {
		t.Fatal("zero-baseload replay differs from the generated schedule")
	}
}

// TestBaselineSharing pins the instance/type split: every generated
// instance's BaseID resolves through protocol.BaselineAppsOf to a stripped
// spec, and the number of distinct baselines is bounded by kernels ×
// thread sizes, not by instance count.
func TestBaselineSharing(t *testing.T) {
	cfg := testConfig(21)
	cfg.Scenarios = 6
	scenarios, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instances := 0
	for _, s := range scenarios {
		instances += len(s.Apps)
	}
	bases := protocol.BaselineAppsOf(scenarios)
	maxTypes := len(cfg.WithDefaults().Kernels) * cfg.MaxThreads
	if len(bases) > maxTypes {
		t.Fatalf("%d baseline specs for %d possible types", len(bases), maxTypes)
	}
	if len(bases) >= instances {
		t.Fatalf("no baseline sharing: %d baselines for %d instances", len(bases), instances)
	}
	for _, b := range bases {
		if b.BaseID != "" || b.StartAt != 0 || b.StopAt != 0 {
			t.Fatalf("baseline spec %s kept traffic fields: %+v", b.ID, b)
		}
	}
}

// TestInstanceIDs pins newInstance's strconv-built IDs to the
// "<kernel>-<threads>.<seq>" format with seq zero-padded to three digits,
// as fmt renders it, and checks that every generated instance carries its
// kernel's workload.
func TestInstanceIDs(t *testing.T) {
	w, ok := KernelByName("compress-7zip")
	if !ok {
		t.Fatal("compress-7zip not a kernel")
	}
	for _, seq := range []int{0, 7, 9, 10, 42, 99, 100, 999, 1000, 12345} {
		for _, threads := range []int{1, 2, 16} {
			a := newInstance(w, threads, seq, 0, 0)
			base := fmt.Sprintf("%s-%d", w.Name, threads)
			if id := fmt.Sprintf("%s.%03d", base, seq); a.ID != id || a.BaseID != base {
				t.Errorf("seq %d threads %d: ID %q base %q, want %q %q", seq, threads, a.ID, a.BaseID, id, base)
			}
		}
	}
	scenarios, err := Generate(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		for _, a := range s.Apps {
			want, _ := KernelByName(a.Workload.Name)
			if !reflect.DeepEqual(a.Workload, want) {
				t.Fatalf("instance %s carries a workload unlike its kernel's", a.ID)
			}
		}
	}
}

// TestGenerateAllocatesOnlyIDs pins Generate's memory: every scenario's
// instances are a capacity-clipped window of one slab per call, the
// instance's ID (its BaseID is the ID's prefix) is the only allocation
// made per instance, and nothing is allocated per scenario — so the
// allocations beyond one per instance are the same for 24 scenarios and
// for 96. Concurrent calls, which share the pooled scratch, reproduce a
// sequential call, and an earlier call's scenarios are unchanged after
// later calls reuse the scratch.
func TestGenerateAllocatesOnlyIDs(t *testing.T) {
	var extra []float64
	for _, n := range []int{24, 96} {
		cfg := testConfig(5)
		cfg.Scenarios = n
		scenarios, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		instances := 0
		for i, s := range scenarios {
			instances += len(s.Apps)
			if cap(s.Apps) != len(s.Apps) {
				t.Fatalf("scenario %d: Apps capacity %d, want its length %d", i, cap(s.Apps), len(s.Apps))
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
		extra = append(extra, allocs-float64(instances))
	}
	if !raceEnabled && extra[0] != extra[1] {
		t.Errorf("allocations beyond one per instance: %v for 24 scenarios, %v for 96; want equal", extra[0], extra[1])
	}

	cfg := testConfig(9)
	cfg.Scenarios = 30
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf("%+v", want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				got, err := Generate(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("a concurrent Generate differs from the sequential one")
					return
				}
			}
		}()
	}
	wg.Wait()
	if fmt.Sprintf("%+v", want) != snapshot {
		t.Error("later Generate calls changed an earlier call's scenarios")
	}
}
