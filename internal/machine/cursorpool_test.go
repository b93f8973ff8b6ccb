package machine

import (
	"math"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
)

// streamBits flattens everything StreamSegments yields for one run — each
// segment's tick range, per-tick powers, breakdown, frequency and dense
// process column — plus the returned info into a bit-exact sequence.
func streamBits(t *testing.T, cfg Config, procs []Proc, dur time.Duration) []uint64 {
	t.Helper()
	var bits []uint64
	f := func(v float64) { bits = append(bits, math.Float64bits(v)) }
	info, err := StreamSegments(cfg, procs, dur, func(seg *Segment) error {
		bits = append(bits, uint64(seg.StartTick), uint64(seg.Ticks()))
		for _, p := range seg.Powers {
			f(float64(p))
		}
		rec := seg.Rec
		f(float64(rec.TruePower))
		f(float64(rec.Idle))
		f(float64(rec.Residual))
		f(float64(rec.Active))
		f(float64(rec.Freq))
		for _, pt := range rec.Procs {
			f(float64(pt.CPUTime))
			f(float64(pt.ActivePower))
			bits = append(bits, uint64(pt.Threads))
			f(pt.Counters.Cycles)
			f(pt.Counters.Instructions)
			f(pt.Counters.CacheRefs)
			f(pt.Counters.Branches)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bits = append(bits, uint64(info.Ticks), uint64(info.Duration))
	for _, end := range info.Ends {
		bits = append(bits, uint64(end))
	}
	return bits
}

// TestCursorPoolReuseMatchesFresh runs, on one goroutine so every run
// takes the cursor the previous one returned, a 3-process DAHU scenario,
// then a SMALL INTEL scenario of the same roster width but different
// workloads, then a wider roster, then the first again. Each run must be
// bit-identical to the same run on a never-used cursor: a recycled cursor
// that kept the previous run's per-slot costs, counter memo, end times or
// change-points would show up here.
func TestCursorPoolReuseMatchesFresh(t *testing.T) {
	dahu := prodConfig(cpumodel.Dahu())
	dahu.NoiseStddev, dahu.Seed = 0.4, 7
	small := prodConfig(cpumodel.SmallIntel())
	small.NoiseStddev, small.Seed = 0.4, 8

	three := []Proc{stressProc("a", "matrixprod", 4), stressProc("b", "fibonacci", 2), stressProc("c", "queens", 3)}
	three[1].Start = 400 * time.Millisecond
	three[2].Stop = 1500 * time.Millisecond
	other := []Proc{stressProc("a", "int64", 2), stressProc("b", "float64", 1), stressProc("c", "ackermann", 1)}
	other[0].Stop = 900 * time.Millisecond
	wide := []Proc{
		stressProc("v", "matrixprod", 1), stressProc("w", "fibonacci", 1), stressProc("x", "queens", 1),
		stressProc("y", "int64", 1), stressProc("z", "float64", 1),
	}
	wide[4].Start = 1200 * time.Millisecond
	runs := []struct {
		cfg   Config
		procs []Proc
	}{{dahu, three}, {small, other}, {small, wide}, {dahu, three}}
	const dur = 2 * time.Second

	// Each reference run draws its cursor from a new, empty pool.
	shared := segCursors
	want := make([][]uint64, len(runs))
	for i, r := range runs {
		segCursors = &sync.Pool{New: func() any { return new(segCursor) }}
		want[i] = streamBits(t, r.cfg, r.procs, dur)
	}
	segCursors = shared

	for round := 0; round < 2; round++ {
		for i, r := range runs {
			got := streamBits(t, r.cfg, r.procs, dur)
			if len(got) != len(want[i]) {
				t.Fatalf("round %d run %d: %d values, fresh cursor %d", round, i, len(got), len(want[i]))
			}
			for k := range got {
				if got[k] != want[i][k] {
					t.Fatalf("round %d run %d: value %d is %x, fresh cursor %x", round, i, k, got[k], want[i][k])
				}
			}
		}
	}
}
