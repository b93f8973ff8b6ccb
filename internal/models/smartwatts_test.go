package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

func TestSmartWattsWarmupThenEstimates(t *testing.T) {
	run, ests := simulatePair(t, cpumodel.SmallIntel(), "int64", "rand", 2, NewSmartWatts(DefaultSmartWattsConfig()), 1)
	warm := DefaultSmartWattsConfig().MinSamples
	for i, est := range ests {
		if i < warm-1 && est != nil {
			t.Fatalf("tick %d: estimate before bin warm-up", i)
		}
		if i >= warm && est == nil {
			t.Fatalf("tick %d: no estimate after warm-up", i)
		}
	}
	// Estimates conserve machine power.
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

func TestSmartWattsSurvivesContextChange(t *testing.T) {
	// The defining contrast with PowerAPI: a process arriving mid-run does
	// not restart calibration when the machine stays in a warm frequency
	// bin (lab context: base frequency throughout).
	w0, _ := workload.StressByName("int64")
	w1, _ := workload.StressByName("rand")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel()}, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: 2},
		{ID: "p1", Workload: w1, Threads: 2, Start: 15 * time.Second},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sw := observeRun(NewSmartWatts(DefaultSmartWattsConfig()).New(1), run)
	arrival := int(15 * time.Second / run.Tick())
	if sw[arrival] == nil {
		t.Error("smartwatts dropped estimates at context change (warm bin)")
	}
	pa := observeRun(NewPowerAPI(DefaultPowerAPIConfig()).New(1), run)
	if pa[arrival] != nil {
		t.Error("powerapi kept estimating at context change (should relearn)")
	}
}

func TestSmartWattsColdBinOnFrequencyChange(t *testing.T) {
	// In the production context, turbo derating moves the frequency when a
	// process arrives: the new bin must warm up before estimates resume.
	w0, _ := workload.StressByName("int64")
	w1, _ := workload.StressByName("rand")
	cfg := machine.Config{Spec: cpumodel.SmallIntel(), Hyperthreading: true, Turbo: true}
	run, err := machine.Simulate(cfg, []machine.Proc{
		{ID: "p0", Workload: w0, Threads: 1},
		{ID: "p1", Workload: w1, Threads: 4, Start: 15 * time.Second},
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Frequencies differ across the arrival (turbo derate ≥ 100 MHz bin).
	before := run.Ticks[0].Freq
	after := run.Ticks[len(run.Ticks)-1].Freq
	if math.Abs(float64(before-after)) < 1e8 {
		t.Fatalf("turbo derating too small for the test: %v vs %v", before, after)
	}
	m := NewSmartWatts(DefaultSmartWattsConfig()).New(1).(*SmartWatts)
	ests := observeRun(m, run)
	arrival := int(15 * time.Second / run.Tick())
	if ests[arrival] != nil {
		t.Error("estimate from a cold frequency bin")
	}
	if ests[len(ests)-1] == nil {
		t.Error("new bin never warmed up")
	}
	if m.WarmBins() != 2 {
		t.Errorf("warm bins = %d, want 2", m.WarmBins())
	}
}

func TestSmartWattsTimelineCoverageBeatsPowerAPI(t *testing.T) {
	// Three context changes at constant frequency: SmartWatts pays one
	// warm-up, PowerAPI pays one per context.
	w, _ := workload.StressByName("int64")
	run, err := machine.Simulate(machine.Config{Spec: cpumodel.SmallIntel()}, []machine.Proc{
		{ID: "P0", Workload: w, Threads: 2},
		{ID: "P1", Workload: w, Threads: 2, Start: 20 * time.Second, Stop: 40 * time.Second},
		{ID: "P2", Workload: w, Threads: 2, Start: 40 * time.Second},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	coverage := func(f Factory) float64 {
		ests := observeRun(f.New(1), run)
		n := 0
		for _, est := range ests {
			if est != nil {
				n++
			}
		}
		return float64(n) / float64(len(ests))
	}
	sw := coverage(NewSmartWatts(DefaultSmartWattsConfig()))
	pa := coverage(NewPowerAPI(DefaultPowerAPIConfig()))
	if sw <= pa+0.2 {
		t.Errorf("smartwatts coverage %.2f not well above powerapi %.2f", sw, pa)
	}
	if sw < 0.9 {
		t.Errorf("smartwatts coverage = %.2f, want ≥0.9", sw)
	}
}

func TestSmartWattsEmptyTick(t *testing.T) {
	m := NewSmartWatts(DefaultSmartWattsConfig()).New(0)
	if est := m.Observe(tick(30, nil)); est != nil {
		t.Errorf("empty tick estimate = %v", est)
	}
}
