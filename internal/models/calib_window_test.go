package models

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// raceEnabled reports a race-detector build (see race_test.go).
var raceEnabled bool

// rowWiseRidgeFit4 is the row-by-row ridge fit, the reference
// calibWindow.fit must match bit for bit: one scaled row, sixteen products
// and four target products per row.
func rowWiseRidgeFit4(rows [][4]float64, y []float64, lambda float64) (weights, scales [4]float64) {
	const dim = 4
	for d := 0; d < dim; d++ {
		scales[d] = 1
	}
	if len(rows) == 0 || len(rows) != len(y) {
		return weights, scales
	}
	for d := 0; d < dim; d++ {
		var sum float64
		for _, r := range rows {
			v := r[d]
			if v < 0 {
				v = -v
			}
			sum += v
		}
		mean := sum / float64(len(rows))
		if mean > 0 {
			scales[d] = mean
		}
	}
	var a [dim][dim]float64
	var b [dim]float64
	for i, r := range rows {
		var x [dim]float64
		for d := 0; d < dim; d++ {
			x[d] = r[d] / scales[d]
		}
		for p := 0; p < dim; p++ {
			for q := 0; q < dim; q++ {
				a[p][q] += x[p] * x[q]
			}
			b[p] += x[p] * y[i]
		}
	}
	for d := 0; d < dim; d++ {
		a[d][d] += lambda * float64(len(rows))
	}
	w, ok := solve4(a, b)
	if !ok {
		return weights, scales
	}
	return w, scales
}

// randomRuns returns a calibration set built the way models feed one: runs
// of identical counter-like rows (magnitudes from cache references to
// cycles, occasionally negative, and with zeroCol, if in 0..3, zero
// throughout), each row with its own target. A run sometimes repeats the
// previous run's row, which the window must merge without changing the fit.
func randomRuns(rng *rand.Rand, zeroCol int) ([][4]float64, []float64) {
	var rows [][4]float64
	var y []float64
	var row [4]float64
	for r := rng.Intn(6) + 1; r > 0; r-- {
		if len(rows) == 0 || rng.Intn(4) != 0 {
			for d := range row {
				row[d] = rng.Float64() * math.Pow(10, float64(7+rng.Intn(4)))
				if rng.Intn(10) == 0 {
					row[d] = -row[d]
				}
			}
			if zeroCol >= 0 {
				row[zeroCol] = 0
			}
		}
		for n := rng.Intn(30) + 1; n > 0; n-- {
			rows = append(rows, row)
			y = append(y, 20+80*rng.Float64())
		}
	}
	return rows, y
}

// TestCalibWindowFitMatchesRowWise is the property calibWindow.fit rests on:
// over random run-length windows — zero columns, single rows and λ = 0
// singular systems included — its weights and scales are bit-identical to
// the row-by-row fit's, both through RidgeFit4 and through a pooled window
// fed row by row.
func TestCalibWindowFitMatchesRowWise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type input struct {
		name string
		rows [][4]float64
		y    []float64
	}
	var inputs []input
	for i := 0; i < 1500; i++ {
		zeroCol := -1
		if i%3 == 0 {
			zeroCol = rng.Intn(4)
		}
		rows, y := randomRuns(rng, zeroCol)
		inputs = append(inputs, input{fmt.Sprintf("random %d", i), rows, y})
	}
	for i := 0; i < 50; i++ {
		rows, y := randomRuns(rng, -1)
		inputs = append(inputs, input{fmt.Sprintf("single row %d", i), rows[:1], y[:1]})
	}
	// One repeated row: rank 1, so λ = 0 is singular.
	inputs = append(inputs,
		input{"rank one", repeatRows([4]float64{2e9, 1e9, 3e7, 2e8}, 40), make([]float64, 40)},
		input{"all zero", repeatRows([4]float64{}, 5), []float64{1, 2, 3, 4, 5}},
		input{"empty", nil, nil})

	for _, in := range inputs {
		for _, lambda := range []float64{0, 1e-3, 1} {
			wantW, wantS := rowWiseRidgeFit4(in.rows, in.y, lambda)
			gotW, gotS := RidgeFit4(in.rows, in.y, lambda)
			w := borrowWindow()
			for i, r := range in.rows {
				w.add(r, in.y[i])
			}
			winW, winS := w.fit(lambda)
			w.handBack()
			for d := 0; d < 4; d++ {
				for _, got := range [][2][4]float64{{gotW, gotS}, {winW, winS}} {
					if math.Float64bits(got[0][d]) != math.Float64bits(wantW[d]) ||
						math.Float64bits(got[1][d]) != math.Float64bits(wantS[d]) {
						t.Fatalf("%s, λ=%g: weights %v scales %v, row-wise %v %v", in.name, lambda, got[0], got[1], wantW, wantS)
					}
				}
			}
		}
	}
}

// TestSmartWattsDegradedTickKeepsFit: a degraded tick adds no row, so once
// a bin has fitted, it must not refit on one, even while the bin's row
// count sits at a multiple of MinSamples.
func TestSmartWattsDegradedTickKeepsFit(t *testing.T) {
	m := NewSmartWatts(DefaultSmartWattsConfig()).New(0).(*SmartWatts)
	defer m.release()
	b := m.bin(2 * units.GHz)
	row := [4]float64{2e9, 3e9, 1e7, 4e8}
	for i := 0; i < m.cfg.MinSamples; i++ {
		warm, refitted := m.calibrateTick(b, row, false, units.Watts(40+i))
		if last := i == m.cfg.MinSamples-1; warm != last || refitted != last {
			t.Fatalf("clean row %d: warm=%v refitted=%v", i+1, warm, refitted)
		}
	}
	warm, refitted := m.calibrateTick(b, row, true, 99)
	if !warm || refitted {
		t.Errorf("degraded tick after %d clean rows: warm=%v refitted=%v, want warm and no refit", m.cfg.MinSamples, warm, refitted)
	}
}

// churnedSegments records the segments of a SMALL INTEL stream of dur over
// procs, deep-copied so they outlive the simulator's scratch buffers.
func churnedSegments(t *testing.T, cfg machine.Config, roster *machine.Roster, procs []machine.Proc, dur time.Duration) []*SegmentTicks {
	// A replay of no models only fills its segment view.
	r := NewStreamReplay(roster, nil, 0)
	defer r.Release()
	var segs []*SegmentTicks
	err := machine.Stream(cfg, procs, dur, func(seg *machine.Segment) error {
		r.ObserveSimulated(seg, cfg.Spec.Topology.LogicalCPUs())
		st := r.arena.seg
		st.Samples = append([]ProcSample(nil), st.Samples...)
		st.Powers = append([]units.Watts(nil), st.Powers...)
		segs = append(segs, &st)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestCalibrationBytesIndependentOfRunLength pins the pooled calibration
// windows: PowerAPI and SmartWatts replayed over a churned stream, in which
// the process set changes every three seconds so PowerAPI never finishes
// learning, and then released, allocate the same bytes per replay — within
// 1 kB — whether the stream lasts 30 s or 120 s, and under 2 kB in all
// (the models, their per-roster columns and the replay handle). A
// SmartWatts bin appending rows to its own slices grows with the stream; a
// learning window handed back only at a calibration leaks at every replay.
// The measurement runs on one P: a pooled item Put on one P is out of reach
// of a Get on another until a steal, and a goroutine that migrates would
// reallocate the replay's arena, which outweighs everything measured. The
// race detector drops pooled items at random, so the bounds only hold
// without it.
func TestCalibrationBytesIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := machine.Config{Spec: cpumodel.SmallIntel(), NoiseStddev: 0.25, Seed: 11}
	mk := func(id, fn string, threads int, start, stop time.Duration) machine.Proc {
		p := pairProcs(t, fn, fn, threads)[0]
		p.ID, p.Start, p.Stop = id, start, stop
		return p
	}
	const longest = 120 * time.Second
	procs := []machine.Proc{mk("a", "fibonacci", 2, 0, 0), mk("b", "matrixprod", 2, 0, 0)}
	kernels := []string{"int64", "rand", "float64"}
	for i := 0; time.Duration(i)*6*time.Second < longest; i++ {
		start := time.Duration(i)*6*time.Second + 3*time.Second
		procs = append(procs, mk(fmt.Sprintf("s%02d", i), kernels[i%len(kernels)], 1, start, start+3*time.Second))
	}
	ids := make([]string, len(procs))
	for i, p := range procs {
		ids[i] = p.ID
	}
	roster := machine.NewRoster(ids)
	powerapi := NewPowerAPI(DefaultPowerAPIConfig())
	smartwatts := NewSmartWatts(DefaultSmartWattsConfig())
	replay := func(segs []*SegmentTicks, capTicks int) *StreamReplay {
		r := NewStreamReplay(roster, []Model{powerapi.New(1), smartwatts.New(1)}, capTicks)
		for _, s := range segs {
			r.ObserveSegment(s)
		}
		return r
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var bytes []int64
	for _, dur := range []time.Duration{30 * time.Second, longest} {
		segs := churnedSegments(t, cfg, roster, procs, dur)
		capTicks := cfg.ReservedTicks(dur)
		r := replay(segs, capTicks)
		for k, ok := range r.Estimates(0).OK {
			if ok {
				t.Fatalf("%v: PowerAPI estimated tick %d; the stream must keep it learning", dur, k)
			}
		}
		warm := 0
		for _, ok := range r.Estimates(1).OK {
			if ok {
				warm++
			}
		}
		if warm == 0 {
			t.Fatalf("%v: SmartWatts never estimated", dur)
		}
		r.Release()
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replay(segs, capTicks).Release()
			}
		})
		bytes = append(bytes, res.AllocedBytesPerOp())
	}
	t.Logf("a released replay allocates %d B at 30 s and %d B at 120 s", bytes[0], bytes[1])
	if d := bytes[1] - bytes[0]; d > 1024 || d < -1024 {
		t.Errorf("a released replay allocates %d B at 30 s and %d B at 120 s; want within 1 kB", bytes[0], bytes[1])
	}
	for i, b := range bytes {
		if b > 2048 {
			t.Errorf("replay %d allocates %d B, want at most 2 kB", i, b)
		}
	}
}
