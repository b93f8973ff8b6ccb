package livemeter

import (
	"errors"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/energyacct"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/workload"
)

// TestMeterMatchesSimulatedScaphandre checks the live path against the
// simulator: a seeded two-process scenario, one process arriving mid-run,
// is streamed tick by tick into a synthetic powercap and proc tree, and a
// Meter running Scaphandre over that tree must book each PID the energy
// the simulator path's Scaphandre books its process.
//
// Only models that read what a real host exposes can run live. Scaphandre
// (CPU time) can; so could WattScope (CPU time and machine power).
// Oracle cannot: it reads TrueActive, the simulator's ground truth.
// PowerAPI, SmartWatts and Kepler cannot either: they divide by
// performance counters, which procfs does not expose, so the meter hands
// them zero counters.
func TestMeterMatchesSimulatedScaphandre(t *testing.T) {
	const userHz = 100
	fib, _ := workload.StressByName("fibonacci")
	build, _ := workload.PhoronixByName("build2")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel(), NoiseStddev: 0.25, Seed: 7},
		[]machine.Proc{
			{ID: "a", Workload: fib, Threads: 2},
			{ID: "b", Workload: build, Threads: 3, Start: 2 * time.Second},
		}, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := energyacct.FromRun(run, models.NewScaphandre(), 1)

	ids := run.Roster.IDs()
	pids := make([]int, len(ids))
	for slot := range ids {
		pids[slot] = 10 + slot
	}
	h := newHost(t)
	m, err := Open(Config{PowercapRoot: h.CapRoot, ProcRoot: h.ProcRoot, UserHz: userHz, Retry: noSleep(1)})
	if err != nil {
		t.Fatal(err)
	}

	// A process's proc entry appears, at zero jiffies, one sample before
	// its first running tick: the tracker's first read of a PID is its
	// baseline, so the entry must exist before the process burns CPU.
	started := make([]bool, len(ids))
	spawn := func(rec *machine.TickRecord) {
		for slot, pt := range rec.Procs {
			if pt.Present() && !started[slot] {
				started[slot] = true
				h.SetProcJiffies(pids[slot], 0)
			}
		}
	}
	dt := run.Tick()
	base := time.Unix(1000, 0)
	spawn(&run.Ticks[0])
	if _, err := m.Sample(base, pids); !errors.Is(err, ErrNotPrimed) {
		t.Fatalf("prime err = %v", err)
	}

	// Jiffies are floor(cumulative CPU time × USER_HZ): per-tick rounding
	// never drifts, and each tick's count is within one jiffy of the
	// simulated CPU time. sim divides each tick as the simulator path does.
	sim := models.NewScaphandre().New(1)
	samples := make([]models.ProcSample, len(ids))
	cpu := make([]float64, len(ids))
	jiffies := make([]uint64, len(ids))
	got := make([]float64, len(ids))
	bound := make([]float64, len(ids))
	for i := range run.Ticks {
		rec := &run.Ticks[i]
		energy := float64(rec.Power.Energy(dt))
		h.AddEnergy(0, energy)
		var tickJiffies uint64
		for slot, pt := range rec.Procs {
			samples[slot] = models.ProcSample{CPUTime: pt.CPUTime, Threads: pt.Threads}
			cpu[slot] += pt.CPUTime.Seconds()
			j := uint64(math.Floor(cpu[slot] * userHz))
			h.AddProcJiffies(pids[slot], j-jiffies[slot])
			tickJiffies += j - jiffies[slot]
			jiffies[slot] = j
		}
		if i+1 < len(run.Ticks) {
			spawn(&run.Ticks[i+1])
		}
		attr, err := m.Sample(base.Add(time.Duration(i+1)*dt), pids)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		est := sim.Observe(models.Tick{At: rec.At, Interval: dt, MachinePower: rec.Power, Roster: run.Roster, Samples: samples})

		// The bound, per process and tick. Energy: both counter reads
		// floor the delivered µJ, so the meter's interval energy is within
		// 1 µJ of the simulated one, and a share is at most 1. Shares: with
		// simulated CPU times c_k (sum C) and jiffy counts j_k = c_k + δ_k
		// (|δ_k| < 1, sum J), |j_i/J − c_i/C| = |(C−c_i)δ_i − c_i Σ_{k≠i} δ_k|
		// / (C·J) < max(1, n−1)/J for n processes. A tick with no jiffies
		// may lose its whole energy. float64 rounding adds far less than
		// 1e-9 of the tick's energy.
		tickBound := 1e-6 + 1e-9*energy + energy
		if tickJiffies > 0 {
			tickBound = 1e-6 + 1e-9*energy + energy*float64(max(1, len(ids)-1))/float64(tickJiffies)
		}
		for slot, pid := range pids {
			live := float64(attr.PerPID[pid]) * attr.Interval.Seconds()
			simulated := float64(est[ids[slot]]) * dt.Seconds()
			if diff := math.Abs(live - simulated); diff > tickBound {
				t.Errorf("tick %d, pid %d (%s): live %.6f J, simulated %.6f J: off by %.3g J, bound %.3g J",
					i, pid, ids[slot], live, simulated, diff, tickBound)
			}
			got[slot] += live
			bound[slot] += tickBound
		}
	}

	for slot, id := range ids {
		w := float64(want.Energy(id))
		if w <= 0 {
			t.Fatalf("simulator path booked %s no energy", id)
		}
		if diff := math.Abs(got[slot] - w); diff > bound[slot] {
			t.Errorf("pid %d (%s): live %.6f J, simulated %.6f J: off by %.3g J, bound %.3g J",
				pids[slot], id, got[slot], w, diff, bound[slot])
		}
		t.Logf("%s: live %.6f J, simulated %.6f J, bound %.3g J", id, got[slot], w, bound[slot])
	}
}
