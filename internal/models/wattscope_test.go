package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/units"
)

// wsTick builds a tick with the given machine power and per-proc
// CPU utilizations (fraction of a 50 ms interval).
func wsTick(power float64, degraded bool, utils map[string]float64) Tick {
	const interval = 50 * time.Millisecond
	procs := make(map[string]ProcSample, len(utils))
	for id, u := range utils {
		procs[id] = ProcSample{
			CPUTime: units.CPUTime(time.Duration(u * float64(interval))),
			Threads: 1,
		}
	}
	return withProcs(Tick{
		Interval:     interval,
		MachinePower: units.Watts(power),
		LogicalCPUs:  8,
		Degraded:     degraded,
	}, nil, procs)
}

func TestWattScopeSumsToMachinePower(t *testing.T) {
	m := NewWattScope().New(0)
	// Prime the floor with a near-idle tick, then divide a loaded one.
	if est := m.Observe(wsTick(10, false, nil)); est != nil {
		t.Fatalf("idle tick produced estimates: %v", est)
	}
	est := m.Observe(wsTick(40, false, map[string]float64{"a": 0.9, "b": 0.3, "c": 0.02}))
	if est == nil {
		t.Fatal("loaded tick produced no estimate")
	}
	var sum float64
	for _, w := range est {
		if w < 0 || math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			t.Fatalf("estimate %v not finite and non-negative", w)
		}
		sum += float64(w)
	}
	if math.Abs(sum-40) > 1e-9 {
		t.Fatalf("estimates sum to %v, want machine power 40", sum)
	}
	// The floor (10 W) splits evenly; the 30 W dynamic part follows coarse
	// utilization, so the busy process gets strictly more than the others.
	if est["a"] <= est["b"] || est["b"] <= est["c"] {
		t.Fatalf("dynamic split does not follow utilization: %v", est)
	}
	// c's 2%% utilization rounds to the zero quantum step: it receives the
	// even floor share only.
	if got := float64(est["c"]); math.Abs(got-10.0/3) > 1e-9 {
		t.Fatalf("zero-quantum process got %v, want floor share %v", got, 10.0/3)
	}
}

func TestWattScopeDegradedTicks(t *testing.T) {
	m := NewWattScope().New(0)
	// A degraded first tick must still divide — finitely — without priming
	// the floor.
	est := m.Observe(wsTick(35, true, map[string]float64{"a": 0.5, "b": 0.5}))
	if est == nil {
		t.Fatal("degraded tick produced no estimate")
	}
	var sum float64
	for id, w := range est {
		if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			t.Fatalf("degraded estimate %s = %v not finite", id, w)
		}
		sum += float64(w)
	}
	if math.Abs(sum-35) > 1e-9 {
		t.Fatalf("degraded estimates sum to %v, want 35", sum)
	}
	// Degraded readings must not contaminate the floor: a low coalesced
	// reading followed by a normal one should leave the floor at the
	// normal tick's level, i.e. all of a later equal reading is static.
	m2 := NewWattScope().New(0)
	m2.Observe(wsTick(1, true, map[string]float64{"a": 0.5}))
	m2.Observe(wsTick(20, false, map[string]float64{"a": 0.5}))
	est = m2.Observe(wsTick(20, false, map[string]float64{"a": 1.0, "b": 0.0}))
	// Floor is 20 (degraded 1 W skipped), so the whole 20 W is static and
	// splits evenly despite the skewed utilization.
	if math.Abs(float64(est["a"])-10) > 1e-9 || math.Abs(float64(est["b"])-10) > 1e-9 {
		t.Fatalf("degraded reading leaked into the floor: %v", est)
	}
}

func TestWattScopeZeroUtilizationFallsBackToEvenSplit(t *testing.T) {
	m := NewWattScope().New(0)
	m.Observe(wsTick(8, false, nil)) // prime floor at 8 W
	est := m.Observe(wsTick(30, false, map[string]float64{"a": 0.01, "b": 0.0}))
	if est == nil {
		t.Fatal("no estimate")
	}
	if math.Abs(float64(est["a"])-15) > 1e-9 || math.Abs(float64(est["b"])-15) > 1e-9 {
		t.Fatalf("zero-quantum tick should split evenly: %v", est)
	}
}
