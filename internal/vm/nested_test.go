package vm

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

func stressProc(t *testing.T, id, fn string, threads int) machine.Proc {
	t.Helper()
	w, ok := workload.StressByName(fn)
	if !ok {
		t.Fatalf("unknown stress %s", fn)
	}
	return machine.Proc{ID: id, Workload: w, Threads: threads}
}

func twoVMs(t *testing.T) []MultiVM {
	return []MultiVM{
		{Name: "vm0", VCPUs: 6, Guests: []machine.Proc{
			stressProc(t, "fib", "fibonacci", 2),
			stressProc(t, "mat", "matrixprod", 2),
		}},
		{Name: "vm1", VCPUs: 6, Guests: []machine.Proc{
			stressProc(t, "jmp", "jmp", 2),
			stressProc(t, "rand", "rand", 2),
		}},
	}
}

func TestMultiVMValidate(t *testing.T) {
	good := twoVMs(t)[0]
	if err := good.Validate(); err != nil {
		t.Errorf("valid MultiVM rejected: %v", err)
	}
	bad := []MultiVM{
		{Name: "", VCPUs: 4, Guests: good.Guests},
		{Name: "a/b", VCPUs: 4, Guests: good.Guests},
		{Name: "x", VCPUs: 0, Guests: good.Guests},
		{Name: "x", VCPUs: 4},
		{Name: "x", VCPUs: 1, Guests: good.Guests}, // guests exceed vCPUs
		{Name: "x", VCPUs: 6, Guests: []machine.Proc{
			stressProc(t, "a/b", "jmp", 1),
		}},
		{Name: "x", VCPUs: 6, Guests: []machine.Proc{
			stressProc(t, "a", "jmp", 1),
			stressProc(t, "a", "rand", 1),
		}},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad MultiVM %d accepted", i)
		}
	}
}

func TestGuestIDRoundTrip(t *testing.T) {
	id := GuestID("vm0", "fib")
	if id != "vm0/fib" {
		t.Errorf("GuestID = %q", id)
	}
	vmName, guest, ok := SplitGuestID(id)
	if !ok || vmName != "vm0" || guest != "fib" {
		t.Errorf("SplitGuestID = %q/%q/%v", vmName, guest, ok)
	}
	if _, _, ok := SplitGuestID("plain"); ok {
		t.Error("non-guest ID split")
	}
}

func TestHostMultiCapacity(t *testing.T) {
	cfg := prodSmall() // 12 logical CPUs
	procs, err := HostMulti(cfg, twoVMs(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 4 {
		t.Fatalf("%d host procs, want 4", len(procs))
	}
	for _, p := range procs {
		if _, _, ok := SplitGuestID(p.ID); !ok {
			t.Errorf("host proc ID %q not namespaced", p.ID)
		}
	}
	three := append(twoVMs(t), MultiVM{Name: "vm2", VCPUs: 6, Guests: []machine.Proc{stressProc(t, "x", "int64", 1)}})
	if _, err := HostMulti(cfg, three); err == nil {
		t.Error("18 vCPUs accepted on 12-thread host")
	}
	dup := twoVMs(t)
	dup[1].Name = dup[0].Name
	if _, err := HostMulti(cfg, dup); err == nil {
		t.Error("duplicate VM names accepted")
	}
}

func simulateNested(t *testing.T) *machine.Run {
	t.Helper()
	cfg := prodSmall()
	procs, err := HostMulti(cfg, twoVMs(t))
	if err != nil {
		t.Fatal(err)
	}
	run, err := machine.Simulate(cfg, procs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestNestedDivisionConservation(t *testing.T) {
	run := simulateNested(t)
	ticks, err := NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != len(run.Ticks) {
		t.Fatalf("%d nested ticks for %d run ticks", len(ticks), len(run.Ticks))
	}
	for i, nt := range ticks {
		if nt.PerVM == nil {
			continue
		}
		// Level 1 conserves machine power.
		var vmSum units.Watts
		for _, w := range nt.PerVM {
			vmSum += w
		}
		if math.Abs(float64(vmSum-run.Ticks[i].Power)) > 1e-6 {
			t.Fatalf("tick %d: VM sum %v != machine %v", i, vmSum, run.Ticks[i].Power)
		}
		// Level 2 conserves each VM's attribution.
		perVMGuestSum := map[string]units.Watts{}
		for id, w := range nt.PerGuest {
			vmName, _, _ := SplitGuestID(id)
			perVMGuestSum[vmName] += w
		}
		for vmName, sum := range perVMGuestSum {
			if math.Abs(float64(sum-nt.PerVM[vmName])) > 1e-6 {
				t.Fatalf("tick %d: %s guests sum %v != VM share %v", i, vmName, sum, nt.PerVM[vmName])
			}
		}
	}
}

func TestNestedDivisionGuestRatios(t *testing.T) {
	// With equal thread counts everywhere, CPU-time division splits each
	// level 50/50 regardless of the actual costs — the same blindness the
	// paper demonstrates, now compounded across levels.
	run := simulateNested(t)
	ticks, err := NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), 1)
	if err != nil {
		t.Fatal(err)
	}
	last := ticks[len(ticks)-1]
	if last.PerGuest == nil {
		t.Fatal("no guest attribution")
	}
	fib := float64(last.PerGuest["vm0/fib"])
	mat := float64(last.PerGuest["vm0/mat"])
	if math.Abs(fib-mat) > 1e-6 {
		t.Errorf("CPU-time guest division fib %.2f != mat %.2f", fib, mat)
	}
	// Ground truth differs: matrixprod's cores draw more.
	lastIdx := len(run.Ticks) - 1
	fibPT, _ := run.ProcAt(lastIdx, "vm0/fib")
	matPT, _ := run.ProcAt(lastIdx, "vm0/mat")
	truthFib := float64(fibPT.ActivePower)
	truthMat := float64(matPT.ActivePower)
	if truthFib >= truthMat {
		t.Errorf("ground truth fib %.2f not below mat %.2f", truthFib, truthMat)
	}
}

func TestNestedDivisionOracleIsExact(t *testing.T) {
	// Oracle at both levels recovers each guest's true share of machine
	// power (residual+idle spread by active share, composition exact).
	run := simulateNested(t)
	ticks, err := NestedDivision(run, models.NewOracle(), models.NewOracle(), 1)
	if err != nil {
		t.Fatal(err)
	}
	last := ticks[len(ticks)-1]
	lastIdx := len(run.Ticks) - 1
	rec := run.Ticks[lastIdx]
	var totalActive float64
	for _, pt := range rec.Procs {
		if pt.Present() {
			totalActive += float64(pt.ActivePower)
		}
	}
	for id, got := range last.PerGuest {
		pt, _ := run.ProcAt(lastIdx, id)
		want := float64(rec.Power) * float64(pt.ActivePower) / totalActive
		if math.Abs(float64(got)-want) > 1e-6 {
			t.Errorf("%s = %v, want %.3f", id, got, want)
		}
	}
}

func TestNestedDivisionRejectsFlatIDs(t *testing.T) {
	cfg := prodSmall()
	run, err := machine.Simulate(cfg, []machine.Proc{stressProc(t, "flat", "int64", 1)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), 1); err == nil {
		t.Error("flat process IDs accepted")
	}
}

func TestNestedDivisionLearningDrops(t *testing.T) {
	// A PowerAPI guest model produces no estimates during its learning
	// window: those VMs' guests are simply absent, level 1 still works.
	run := simulateNested(t)
	ticks, err := NestedDivision(run, models.NewScaphandre(), models.NewPowerAPI(models.DefaultPowerAPIConfig()), 1)
	if err != nil {
		t.Fatal(err)
	}
	early := ticks[5]
	if early.PerVM == nil {
		t.Error("host attribution missing during guest learning")
	}
	if early.PerGuest != nil {
		t.Error("guest attribution present during learning window")
	}
}

// freqProbe records the frequency of every tick it observes and splits the
// power evenly among the present processes.
type freqProbe struct{ seen []units.Hertz }

func (p *freqProbe) Name() string { return "freq-probe" }
func (p *freqProbe) Observe(t models.Tick) map[string]units.Watts {
	p.seen = append(p.seen, t.Freq)
	est := map[string]units.Watts{}
	for slot, s := range t.Samples {
		if s.Present() {
			est[t.Roster.ID(slot)] = 1
		}
	}
	for id := range est {
		est[id] = t.MachinePower / units.Watts(len(est))
	}
	return est
}

func TestNestedDivisionCarriesFrequency(t *testing.T) {
	// Frequency-aware models (SmartWatts' bins, ResidualAware's residual
	// curve) must see the record's frequency at both levels.
	run := simulateNested(t)
	var host *freqProbe
	var guests []*freqProbe
	hostF := models.Factory{Name: "host", New: func(int64) models.Model { host = &freqProbe{}; return host }}
	guestF := models.Factory{Name: "guest", New: func(int64) models.Model {
		g := &freqProbe{}
		guests = append(guests, g)
		return g
	}}
	if _, err := NestedDivision(run, hostF, guestF, 1); err != nil {
		t.Fatal(err)
	}
	if len(host.seen) != len(run.Ticks) {
		t.Fatalf("host model saw %d ticks, want %d", len(host.seen), len(run.Ticks))
	}
	for i, f := range host.seen {
		if want := run.Ticks[i].Freq; f != want || want == 0 {
			t.Fatalf("tick %d: host model saw %v, record has %v", i, f, want)
		}
	}
	if len(guests) != 2 {
		t.Fatalf("%d guest models, want 2", len(guests))
	}
	for v, g := range guests {
		if len(g.seen) != len(run.Ticks) {
			t.Fatalf("guest model %d saw %d ticks, want %d", v, len(g.seen), len(run.Ticks))
		}
		for i, f := range g.seen {
			if want := run.Ticks[i].Freq; f != want {
				t.Fatalf("tick %d: guest model %d saw %v, record has %v", i, v, f, want)
			}
		}
	}
}
