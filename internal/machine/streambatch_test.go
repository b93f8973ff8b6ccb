package machine

import (
	"math"
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
// Stream run with Seed = seeds[k].
// The scenario is noisy with staggered starts and an early finisher so the
// noise overlay, early-exit and ProcEnd paths are all exercised.
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

		type capture struct {
			ticks []TickRecord
			info  *StreamInfo
		}
		want := make([]capture, len(seeds))
		for k, seed := range seeds {
			solo := cfg
			solo.Seed = seed
			var ticks []TickRecord
			info, err := Stream(solo, procs, dur, func(rec *TickRecord) error {
				r := *rec
				r.Procs = append([]ProcTick(nil), rec.Procs...)
				ticks = append(ticks, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want[k] = capture{ticks, info}
		}

		got, info := captureBatch(t, cfg, procs, dur, seeds)
		for k := range seeds {
			w := want[k]
			if len(got[k]) != len(w.ticks) {
				t.Fatalf("noise=%v rep %d: %d ticks batched, %d solo", noise, k, len(got[k]), len(w.ticks))
			}
			for i, wr := range w.ticks {
				gr := got[k][i]
				if gr.At != wr.At || gr.Freq != wr.Freq {
					t.Fatalf("noise=%v rep %d tick %d header mismatch", noise, k, i)
				}
				for _, p := range [][2]float64{
					{float64(gr.Power), float64(wr.Power)},
					{float64(gr.TruePower), float64(wr.TruePower)},
					{float64(gr.Idle), float64(wr.Idle)},
					{float64(gr.Residual), float64(wr.Residual)},
				} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
						t.Fatalf("noise=%v rep %d tick %d power fields differ", noise, k, i)
					}
				}
				if len(gr.Procs) != len(wr.Procs) {
					t.Fatalf("noise=%v rep %d tick %d proc column width", noise, k, i)
				}
				for s := range wr.Procs {
					gp, wp := gr.Procs[s], wr.Procs[s]
					if gp.CPUTime != wp.CPUTime || gp.Threads != wp.Threads ||
						math.Float64bits(float64(gp.ActivePower)) != math.Float64bits(float64(wp.ActivePower)) {
						t.Fatalf("noise=%v rep %d tick %d slot %d differs", noise, k, i, s)
					}
				}
			}
			if info.Ticks != w.info.Ticks || info.Duration != w.info.Duration {
				t.Fatalf("noise=%v rep %d info %d/%v != %d/%v",
					noise, k, info.Ticks, info.Duration, w.info.Ticks, w.info.Duration)
			}
			for id, at := range w.info.ProcEnd {
				if info.ProcEnd[id] != at {
					t.Fatalf("noise=%v rep %d ProcEnd[%s] differs", noise, k, id)
				}
			}
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
