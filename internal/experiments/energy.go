package experiments

import (
	"fmt"
	"time"

	"powerdiv/internal/energyacct"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/report"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
	"powerdiv/internal/vm"
	"powerdiv/internal/workload"
)

// EnergyDivisionResult is the Section V experiment for one application pair
// and one model: the solo (Table V) energies against the energies the model
// attributes when the applications run colocated in VMs — Fig 12
// (BUILD2 vs DACAPO) and Fig 13 (COMPRESS-7ZIP vs CLOVERLEAF), plus the
// §V-A numbers (BUILD2 −6 %, DACAPO −35 %, pair total −13 %).
type EnergyDivisionResult struct {
	Machine string
	Model   string
	App0    string
	App1    string
	// SoloEnergy are the isolated reference energies.
	SoloEnergy0, SoloEnergy1 units.Joules
	// PairTotal is the machine energy of the colocated run;
	// PairEnergy are the model-attributed energies within it.
	PairTotal                units.Joules
	PairEnergy0, PairEnergy1 units.Joules
	// Est are the attributed power traces (the figures' curves).
	Est0, Est1 *trace.Series
	// PairMachine is the machine power trace of the colocated run.
	PairMachine *trace.Series
}

// Drop0Pct returns app0's attributed-energy reduction relative to solo.
func (r EnergyDivisionResult) Drop0Pct() float64 { return dropPct(r.SoloEnergy0, r.PairEnergy0) }

// Drop1Pct returns app1's attributed-energy reduction relative to solo.
func (r EnergyDivisionResult) Drop1Pct() float64 { return dropPct(r.SoloEnergy1, r.PairEnergy1) }

// TotalDropPct returns the machine-level reduction: colocated total vs the
// sum of solo energies (the paper's "39 kJ … 33 kJ, or a reduction of 13%").
func (r EnergyDivisionResult) TotalDropPct() float64 {
	return dropPct(r.SoloEnergy0+r.SoloEnergy1, r.PairTotal)
}

func dropPct(solo, pair units.Joules) float64 {
	if solo == 0 {
		return 0
	}
	return float64(solo-pair) / float64(solo) * 100
}

// Table renders the Section V energy comparison.
func (r EnergyDivisionResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§V energy division — %s vs %s (%s on %s)", r.App0, r.App1, r.Model, r.Machine),
		"quantity", "solo (kJ)", "colocated (kJ)", "drop %",
	)
	t.AddRow(r.App0,
		fmt.Sprintf("%.2f", r.SoloEnergy0.Kilojoules()),
		fmt.Sprintf("%.2f", r.PairEnergy0.Kilojoules()),
		fmt.Sprintf("%.1f", r.Drop0Pct()))
	t.AddRow(r.App1,
		fmt.Sprintf("%.2f", r.SoloEnergy1.Kilojoules()),
		fmt.Sprintf("%.2f", r.PairEnergy1.Kilojoules()),
		fmt.Sprintf("%.1f", r.Drop1Pct()))
	t.AddRow("total",
		fmt.Sprintf("%.2f", (r.SoloEnergy0+r.SoloEnergy1).Kilojoules()),
		fmt.Sprintf("%.2f", r.PairTotal.Kilojoules()),
		fmt.Sprintf("%.1f", r.TotalDropPct()))
	return t
}

// EnergyDivision runs the Section V experiment: both applications solo
// (reference), then colocated in vcpus-sized VMs, with the model's per-tick
// power estimates integrated into attributed energies.
func EnergyDivision(cfg machine.Config, factory models.Factory, app0, app1 string, vcpus int, seed int64) (EnergyDivisionResult, error) {
	res := EnergyDivisionResult{Machine: cfg.Spec.Name, Model: factory.Name, App0: app0, App1: app1}
	w0, ok := workload.PhoronixByName(app0)
	if !ok {
		return res, fmt.Errorf("unknown application %q", app0)
	}
	w1, ok := workload.PhoronixByName(app1)
	if !ok {
		return res, fmt.Errorf("unknown application %q", app1)
	}
	maxDur := w0.Duration()
	if d := w1.Duration(); d > maxDur {
		maxDur = d
	}
	maxDur += time.Minute

	solo := func(name string, w workload.Workload, s int64) (units.Joules, error) {
		runCfg := cfg
		runCfg.Seed = s
		run, err := vm.SimulateColocation(runCfg, []vm.VM{{Name: name, VCPUs: vcpus, App: w}}, maxDur)
		if err != nil {
			return 0, err
		}
		return run.Energy(), nil
	}
	var err error
	if res.SoloEnergy0, err = solo(app0, w0, seed+1); err != nil {
		return res, err
	}
	if res.SoloEnergy1, err = solo(app1, w1, seed+2); err != nil {
		return res, err
	}

	pairCfg := cfg
	pairCfg.Seed = seed + 3
	procs, err := vm.Host(pairCfg, []vm.VM{
		{Name: app0, VCPUs: vcpus, App: w0},
		{Name: app1, VCPUs: vcpus, App: w1},
	})
	if err != nil {
		return res, err
	}
	res.PairMachine, res.Est0, res.Est1 = trace.New(), trace.New(), trace.New()
	tick := pairCfg.TickInterval()
	err = replaySegments(pairCfg, procs, maxDur, factory.New(seed), func(seg *machine.Segment, est *models.DenseEstimates) {
		slot0, ok0 := est.Roster.Slot(app0)
		slot1, ok1 := est.Roster.Slot(app1)
		ok0 = ok0 && seg.Rec.Procs[slot0].Present()
		ok1 = ok1 && seg.Rec.Procs[slot1].Present()
		for i, p := range seg.Powers {
			at := seg.At(i)
			res.PairMachine.Append(at, float64(p))
			k := seg.StartTick + i
			if !est.OK[k] {
				continue
			}
			row := est.Row(k)
			if ok0 {
				res.Est0.Append(at, float64(row[slot0]))
				res.PairEnergy0 += row[slot0].Energy(tick)
			}
			if ok1 {
				res.Est1.Append(at, float64(row[slot1]))
				res.PairEnergy1 += row[slot1].Energy(tick)
			}
		}
	})
	if err != nil {
		return res, err
	}
	res.PairTotal = res.PairMachine.Energy(tick)
	return res, nil
}

// ColocationSweep reproduces the §V CLOVERLEAF-on-DAHU observation: the
// same application colocated with a growing number of identical neighbour
// VMs sees its attributed energy shrink dramatically (the paper reports
// 60 kJ alone down to 26 kJ with 9 neighbours, −56 %). It returns the
// attributed energy of the observed application for each neighbour count.
func ColocationSweep(cfg machine.Config, factory models.Factory, app string, vcpus int, neighbours []int, seed int64) (map[int]units.Joules, error) {
	w, ok := workload.PhoronixByName(app)
	if !ok {
		return nil, fmt.Errorf("unknown application %q", app)
	}
	out := map[int]units.Joules{}
	for _, n := range neighbours {
		vms := []vm.VM{{Name: app, VCPUs: vcpus, App: w}}
		for i := 0; i < n; i++ {
			vms = append(vms, vm.VM{Name: fmt.Sprintf("neighbour-%d", i), VCPUs: vcpus, App: w})
		}
		runCfg := cfg
		runCfg.Seed = seed + int64(n)
		procs, err := vm.Host(runCfg, vms)
		if err != nil {
			return nil, fmt.Errorf("colocation with %d neighbours: %w", n, err)
		}
		var e units.Joules
		tick := runCfg.TickInterval()
		err = replaySegments(runCfg, procs, w.Duration()+time.Minute, factory.New(seed+int64(n)), func(seg *machine.Segment, est *models.DenseEstimates) {
			slot, ok := est.Roster.Slot(app)
			if !ok {
				return
			}
			for i := range seg.Powers {
				// Absent slots hold zero, so no presence check is needed.
				if k := seg.StartTick + i; est.OK[k] {
					e += est.Row(k)[slot].Energy(tick)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("colocation with %d neighbours: %w", n, err)
		}
		out[n] = e
	}
	return out, nil
}

// energyLedger bills build2 ∥ dacapo, colocated in 6-vCPU VMs for 500 s,
// to a ledger through Scaphandre's estimates, and checks that the ledger
// conserves the machine energy.
func energyLedger(cfg machine.Config, seed int64) (*energyacct.Ledger, error) {
	build2, _ := workload.PhoronixByName("build2")
	dacapo, _ := workload.PhoronixByName("dacapo")
	run, err := vm.SimulateColocation(cfg, []vm.VM{
		{Name: "build2", VCPUs: 6, App: build2},
		{Name: "dacapo", VCPUs: 6, App: dacapo},
	}, 500*time.Second)
	if err != nil {
		return nil, err
	}
	ledger := energyacct.FromRun(run, models.NewScaphandre(), seed)
	return ledger, ledger.Validate()
}

// nestedDivision composes a host-level division among two VMs with
// per-VM guest divisions — the paper's introduction scenario, provider
// and tenant as two actors — and returns the final tick of a 10 s run.
func nestedDivision(cfg machine.Config, seed int64) (vm.NestedTick, error) {
	guest := func(id, fn string) machine.Proc {
		w, _ := workload.StressByName(fn)
		return machine.Proc{ID: id, Workload: w, Threads: 2}
	}
	procs, err := vm.HostMulti(cfg, []vm.MultiVM{
		{Name: "vm0", VCPUs: 6, Guests: []machine.Proc{guest("fib", "fibonacci"), guest("mat", "matrixprod")}},
		{Name: "vm1", VCPUs: 6, Guests: []machine.Proc{guest("jmp", "jmp"), guest("rand", "rand")}},
	})
	if err != nil {
		return vm.NestedTick{}, err
	}
	run, err := machine.Simulate(cfg, procs, 10*time.Second)
	if err != nil {
		return vm.NestedTick{}, err
	}
	ticks, err := vm.NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), seed)
	if err != nil {
		return vm.NestedTick{}, err
	}
	return ticks[len(ticks)-1], nil
}
