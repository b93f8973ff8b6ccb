package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
)

func raTick(power units.Watts, freq units.Hertz, procs map[string]ProcSample) Tick {
	return withProcs(Tick{
		At:           time.Second,
		Interval:     100 * time.Millisecond,
		MachinePower: power,
		LogicalCPUs:  12,
		Freq:         freq,
	}, nil, procs)
}

func raSample(cores float64, threads int) ProcSample {
	return ProcSample{
		CPUTime: units.CPUTime(time.Duration(cores * 100 * float64(time.Millisecond))),
		Threads: threads,
	}
}

func TestResidualAwareEqualDutyMatchesCPUShare(t *testing.T) {
	// Uncapped processes (duty 1 everywhere): identical to Scaphandre.
	f := NewResidualAwareFromSpec(cpumodel.SmallIntel())
	m := f.New(0)
	in := raTick(57.3, 3.6*units.GHz, map[string]ProcSample{
		"a": raSample(2, 2),
		"b": raSample(1, 1),
	})
	got := m.Observe(in)
	want := NewScaphandre().New(0).Observe(in)
	for id := range want {
		if math.Abs(float64(got[id]-want[id])) > 1e-9 {
			t.Errorf("%s: %v, want %v (CPU share)", id, got[id], want[id])
		}
	}
}

func TestResidualAwareCappedProcessPaysLess(t *testing.T) {
	// §IV-B setting: a 50 %-capped 2-thread process against an uncapped
	// 2-thread process. Under CPU-time division the capped one gets 1/3;
	// residual-aware removes the residual it did not cause.
	f := NewResidualAwareFromSpec(cpumodel.SmallIntel())
	m := f.New(0)
	spec := cpumodel.SmallIntel()
	// Machine: idle 8 + R(3.6)=28 (uncapped draws it fully) + active
	// (capped 2×6×0.5=6, uncapped 2×6=12) = 54 W.
	in := raTick(54, 3.6*units.GHz, map[string]ProcSample{
		"capped":   raSample(1, 2), // 2 threads at 50 % = 1 core
		"uncapped": raSample(2, 2),
	})
	got := m.Observe(in)
	scaph := NewScaphandre().New(0).Observe(in)
	if float64(got["capped"]) >= float64(scaph["capped"]) {
		t.Errorf("residual-aware capped share %v not below CPU share %v", got["capped"], scaph["capped"])
	}
	// Decomposition check: active = 54 − 8 − 28 = 18; capped weight =
	// 18×(1/3) + 0 = 6, uncapped = 12 + 28×0.5 = 26; capped share = 6/32.
	wantCapped := 54 * 6.0 / 32.0
	if math.Abs(float64(got["capped"])-wantCapped) > 1e-9 {
		t.Errorf("capped = %v, want %.3f", got["capped"], wantCapped)
	}
	_ = spec
}

func TestResidualAwareIdleTick(t *testing.T) {
	f := NewResidualAwareFromSpec(cpumodel.SmallIntel())
	m := f.New(0)
	if got := m.Observe(raTick(8, 0, map[string]ProcSample{"a": {}})); got != nil {
		t.Errorf("idle tick = %v, want nil", got)
	}
}

func TestResidualAwareEstimatesSumToPower(t *testing.T) {
	f := NewResidualAwareFromSpec(cpumodel.Dahu())
	m := f.New(0)
	in := raTick(170, 2.1*units.GHz, map[string]ProcSample{
		"a": raSample(8, 8),
		"b": raSample(4, 8), // capped to 50 %
		"c": raSample(16, 16),
	})
	got := m.Observe(in)
	var sum units.Watts
	for _, w := range got {
		sum += w
	}
	if math.Abs(float64(sum-170)) > 1e-9 {
		t.Errorf("sum = %v, want 170", sum)
	}
}

func TestResidualAwareUnknownFreqUsesBase(t *testing.T) {
	f := NewResidualAwareFromSpec(cpumodel.SmallIntel())
	m := f.New(0)
	in := raTick(54, 0, map[string]ProcSample{
		"capped":   raSample(1, 2),
		"uncapped": raSample(2, 2),
	})
	withBase := m.Observe(in)
	in.Freq = 3.6 * units.GHz
	explicit := f.New(0).Observe(in)
	for id := range explicit {
		if math.Abs(float64(withBase[id]-explicit[id])) > 1e-9 {
			t.Errorf("%s: %v vs %v", id, withBase[id], explicit[id])
		}
	}
}

func TestResidualAwareOneThreadDutyClamps(t *testing.T) {
	// A present sample has at least one thread (raTick fills in one): a
	// one-thread process reading 2 cores of CPU time clamps at duty 1, and
	// two such processes split evenly.
	f := NewResidualAwareFromSpec(cpumodel.SmallIntel())
	m := f.New(0)
	in := raTick(57.3, 3.6*units.GHz, map[string]ProcSample{
		"a": {CPUTime: units.CPUTime(200 * time.Millisecond)},
		"b": {CPUTime: units.CPUTime(200 * time.Millisecond)},
	})
	got := m.Observe(in)
	if got == nil {
		t.Fatal("no estimate")
	}
	if math.Abs(float64(got["a"]-got["b"])) > 1e-9 {
		t.Errorf("equal one-thread procs split unevenly: %v", got)
	}
}
