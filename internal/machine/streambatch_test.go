package machine

import (
	"fmt"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
)

// captureBatch runs a StreamBatchSegments pass and flattens each
// repetition's segments into per-tick records, checking that yields
// arrive rep-ascending within each segment.
func captureBatch(t *testing.T, cfg Config, procs []Proc, dur time.Duration, seeds []int64) ([][]TickRecord, *StreamInfo) {
	t.Helper()
	reps := make([][]TickRecord, len(seeds))
	lastRep := -1
	info, err := StreamBatchSegments(cfg, procs, dur, seeds, func(rep int, seg *Segment) error {
		if want := (lastRep + 1) % len(seeds); rep != want {
			t.Fatalf("rep %d yielded after %d, want %d", rep, lastRep, want)
		}
		lastRep = rep
		for i := range seg.Powers {
			r := *seg.Rec
			r.At = seg.At(i)
			r.Power = seg.Powers[i]
			r.Procs = append([]ProcTick(nil), seg.Rec.Procs...)
			reps[rep] = append(reps[rep], r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps, info
}

// TestStreamBatchMatchesStream pins the batch contract: repetition k of a
// StreamBatchSegments pass, flattened to ticks, is bit-identical — every
// tick field, every proc column, and the StreamInfo — to a standalone
// StreamSegments run with Seed = seeds[k], flattened the same way.
// The scenario is noisy with staggered starts and an early finisher so the
// noise overlay, early-exit and end-time paths are all exercised.
func TestStreamBatchMatchesStream(t *testing.T) {
	for _, noise := range []units.Watts{0.25, 0} {
		cfg := prodConfig(cpumodel.Dahu())
		cfg.NoiseStddev = noise
		procs := []Proc{
			stressProc("b-late", "matrixprod", 2),
			stressProc("a-short", "fibonacci", 2),
		}
		procs[0].Start = 500 * time.Millisecond
		procs[1].Stop = 2 * time.Second
		const dur = 5 * time.Second
		seeds := []int64{42, 7, 99}

		got, info := captureBatch(t, cfg, procs, dur, seeds)
		for k, seed := range seeds {
			solo := cfg
			solo.Seed = seed
			want, _ := captureSegments(t, solo, procs, dur)
			requireIdentical(t, fmt.Sprintf("noise=%v rep %d", noise, k), want, tickCapture{got[k], info})
		}
	}
}

// TestStreamBatchNoSeeds pins the degenerate input: an empty seed set is a
// caller error, not a silent no-op.
func TestStreamBatchNoSeeds(t *testing.T) {
	cfg := prodConfig(cpumodel.Dahu())
	procs := []Proc{stressProc("a", "fibonacci", 1)}
	if _, err := StreamBatchSegments(cfg, procs, time.Second, nil, func(int, *Segment) error { return nil }); err == nil {
		t.Fatal("StreamBatchSegments with no seeds succeeded")
	}
}
