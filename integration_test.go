// End-to-end integration tests exercising the public pipeline the way the
// examples and CLIs do: simulate → sense → divide → score → account.
package powerdiv_test

import (
	"context"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/energyacct"
	"powerdiv/internal/experiments"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/rapl"
	"powerdiv/internal/vm"
	"powerdiv/internal/workload"
)

// TestEndToEndProtocolPipeline runs the full paper protocol on one pair
// through every layer, asserting the headline worst-case number.
func TestEndToEndProtocolPipeline(t *testing.T) {
	ctx := protocol.DefaultContext(machine.Config{
		Spec:        cpumodel.SmallIntel(),
		NoiseStddev: 0.25,
		Seed:        42,
	})
	fib, err := protocol.StressApp("fibonacci", 3)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := protocol.StressApp("matrixprod", 3)
	if err != nil {
		t.Fatal(err)
	}
	scenario := protocol.Scenario{Apps: []protocol.AppSpec{fib, mat}}
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: []protocol.Scenario{scenario}, Factories: protocol.FixedFactories(models.NewScaphandre()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Pairs(0, 0)[0]
	// The paper's SMALL INTEL worst case: ≈11.7 %.
	if ev.AE < 0.10 || ev.AE > 0.13 {
		t.Errorf("worst-pair AE = %.4f, want ≈0.117", ev.AE)
	}
}

// TestEndToEndSensorRoundTrip verifies that dividing power read through
// the RAPL counter emulation equals dividing the simulator's power
// directly: the sensor layer is lossless for constant loads.
func TestEndToEndSensorRoundTrip(t *testing.T) {
	cfg := machine.Config{Spec: cpumodel.SmallIntel()}
	w0, _ := workload.StressByName("fibonacci")
	w1, _ := workload.StressByName("matrixprod")
	run, err := machine.Simulate(cfg, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: 2},
		{ID: "p1", Workload: w1, Threads: 2},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	zone := rapl.NewSimZone(run, 987654321)
	sensed, err := zone.Trace(run.Tick())
	if err != nil {
		t.Fatal(err)
	}
	direct := run.PowerSeries()
	if math.Abs(sensed.Mean()-direct.Mean()) > 0.01 {
		t.Errorf("sensed mean %v != direct mean %v", sensed.Mean(), direct.Mean())
	}
}

// TestEndToEndBillingScenario plays the provider use case: two tenant VMs,
// nested division, and a billing ledger per level.
func TestEndToEndBillingScenario(t *testing.T) {
	cfg := machine.Config{Spec: cpumodel.SmallIntel(), Hyperthreading: true, Turbo: true, Seed: 7}
	fib, _ := workload.StressByName("fibonacci")
	mat, _ := workload.StressByName("matrixprod")
	vms := []vm.MultiVM{
		{Name: "tenant-a", VCPUs: 6, Guests: []machine.Proc{
			{ID: "web", Workload: fib, Threads: 2},
			{ID: "db", Workload: mat, Threads: 2},
		}},
		{Name: "tenant-b", VCPUs: 6, Guests: []machine.Proc{
			{ID: "batch", Workload: mat, Threads: 4},
		}},
	}
	procs, err := vm.HostMulti(cfg, vms)
	if err != nil {
		t.Fatal(err)
	}
	run, err := machine.Simulate(cfg, procs, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ticks, err := vm.NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Bill the tenants from the host-level division.
	bill := energyacct.New()
	for i, nt := range ticks {
		bill.Record(run.Tick(), run.Ticks[i].Power, nt.PerVM)
	}
	if err := bill.Validate(); err != nil {
		t.Fatal(err)
	}
	// tenant-b runs 4 threads of the hottest function; tenant-a runs 2+2
	// of mixed cost. CPU-time division bills them equally by core-seconds.
	a := bill.Energy("tenant-a")
	b := bill.Energy("tenant-b")
	if math.Abs(float64(a-b))/float64(a) > 0.02 {
		t.Errorf("equal-CPU tenants billed unequally: %v vs %v", a, b)
	}
	// Ground truth differs (tenant-b's workload is hotter per core but two
	// of its threads run as discounted SMT siblings): equal bills hide a
	// real asymmetry in either direction.
	var trueA, trueB float64
	rosterIDs := run.Roster.IDs()
	for _, rec := range run.Ticks {
		for slot, pt := range rec.Procs {
			if !pt.Present() {
				continue
			}
			vmName, _, _ := vm.SplitGuestID(rosterIDs[slot])
			if vmName == "tenant-a" {
				trueA += float64(pt.ActivePower)
			} else {
				trueB += float64(pt.ActivePower)
			}
		}
	}
	if diff := math.Abs(trueA-trueB) / trueA; diff < 0.05 {
		t.Errorf("ground-truth asymmetry = %.3f, want >5%% (a=%v b=%v)", diff, trueA, trueB)
	}
}

// TestEndToEndFamilyConsistency cross-checks the division formalism
// against a simulated pair: Eq 2 with the F1 policy reproduces what an
// active-share division of C produces.
func TestEndToEndFamilyConsistency(t *testing.T) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), 3)
	a0, _ := protocol.StressApp("queens", 2)
	a1, _ := protocol.StressApp("jmp", 2)
	baselines, err := protocol.Measure(context.Background(), ctx, []protocol.AppSpec{a0, a1})
	if err != nil {
		t.Fatal(err)
	}
	bs := []division.Baseline{baselines[a0.ID], baselines[a1.ID]}
	shares := division.TruthShares(bs)

	// Eq 2: Ce_i = A_S − A_{S/P_i} + x·R with x = active share (F1).
	aS := bs[0].Active() + bs[1].Active() // lab context: additive
	r := bs[0].Residual                   // same residual for both (uncapped)
	ce0 := division.EstimateWithPolicy(aS, bs[1].Active(), r, shares[a0.ID])
	// Direct F1: share of C = A_S + R.
	want := float64(aS+r) * shares[a0.ID]
	if math.Abs(float64(ce0)-want) > 1e-9 {
		t.Errorf("Eq 2 F1 estimate %v != direct share %v", ce0, want)
	}
}
