package models

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/units"
)

// jiffyTick builds a tick whose per-process CPU times come from raw jiffy
// counts at USER_HZ=100 (10 ms each), the quantisation the live meter's
// procfs tracker actually delivers.
func jiffyTick(power units.Watts, jiffies map[string]int) Tick {
	procs := make(map[string]ProcSample, len(jiffies))
	for id, j := range jiffies {
		procs[id] = ProcSample{CPUTime: units.CPUTime(time.Duration(j) * 10 * time.Millisecond)}
	}
	return withProcs(Tick{
		At:           time.Second,
		Interval:     time.Second,
		MachinePower: power,
		LogicalCPUs:  12,
	}, nil, procs)
}

// TestScaphandreJiffyShareDivision pins the Scaphandre division rule on
// hand-built jiffy counts: every process receives power × (own jiffies /
// total jiffies), the estimates conserve the machine power exactly, and a
// process with zero jiffies is present with 0 W rather than dropped.
func TestScaphandreJiffyShareDivision(t *testing.T) {
	m := NewScaphandre().New(0)
	jiffies := map[string]int{"a": 73, "b": 21, "c": 6, "idle-helper": 0}
	const power = 87.5
	est := m.Observe(jiffyTick(power, jiffies))
	if est == nil {
		t.Fatal("no estimate")
	}
	total := 0
	for _, j := range jiffies {
		total += j
	}
	var sum float64
	for id, j := range jiffies {
		want := power * float64(j) / float64(total)
		if got := float64(est[id]); math.Abs(got-want) > 1e-9 {
			t.Errorf("est[%s] = %v W, want %v W (%d/%d jiffies)", id, got, want, j, total)
		}
		sum += float64(est[id])
	}
	if math.Abs(sum-power) > 1e-9 {
		t.Errorf("estimates sum to %v W, want the machine power %v W", sum, power)
	}
	if w, ok := est["idle-helper"]; !ok || w != 0 {
		t.Errorf("zero-jiffy process: est=%v present=%v, want 0 W present", w, ok)
	}
}

// TestScaphandreIgnoresCounters proves the division really is CPU-time
// based: wildly different performance counters must not move the split when
// jiffy counts are equal (the paper: "only CPU time ... seems to have an
// impact on the results").
func TestScaphandreIgnoresCounters(t *testing.T) {
	m := NewScaphandre().New(0)
	tk := jiffyTick(60, map[string]int{"cpu-bound": 50, "mem-bound": 50})
	slot, _ := tk.Roster.Slot("cpu-bound")
	tk.Samples[slot].Counters.Instructions = 1e12
	tk.Samples[slot].Counters.Cycles = 5e11
	est := m.Observe(tk)
	if math.Abs(float64(est["cpu-bound"])-30) > 1e-9 || math.Abs(float64(est["mem-bound"])-30) > 1e-9 {
		t.Errorf("est = %v, want an even 30/30 split regardless of counters", est)
	}
}
