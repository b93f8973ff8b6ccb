package models

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/rng"
)

// TestPowerAPIWindowPoolConcurrentModels runs PowerAPI and SmartWatts
// models on several goroutines at once over a churned roster, each through
// a StreamReplay released afterwards, so calibration windows pass between
// models through the pool mid-campaign: every PowerAPI context change takes
// a window and every calibration (ridge or degenerate) hands it back, every
// SmartWatts bin takes one, and Release hands back the rest — full windows
// of SmartWatts bins, and PowerAPI windows still learning when a replay
// stops mid-window. Each model's estimates must be bit-identical to the
// same model fed the same ticks serially, and a replay stopped early must
// match the full replay's prefix.
func TestPowerAPIWindowPoolConcurrentModels(t *testing.T) {
	spec := cpumodel.Dahu()
	if spec.Topology.LogicalCPUs() < 32 {
		t.Fatalf("%s has %d logical CPUs; the degenerate path needs >= 32", spec.Name, spec.Topology.LogicalCPUs())
	}
	mk := func(id, fn string, start, stop time.Duration) machine.Proc {
		p := pairProcs(t, fn, fn, 2)[0]
		p.ID, p.Start, p.Stop = id, start, stop
		return p
	}
	// Five context changes, each followed by more than a learning window.
	procs := []machine.Proc{
		mk("a", "fibonacci", 0, 0),
		mk("b", "matrixprod", 1500*time.Millisecond, 6*time.Second),
		mk("c", "int64", 3*time.Second, 0),
		mk("d", "rand", 4500*time.Millisecond, 8*time.Second),
	}
	run, err := machine.Simulate(machine.Config{Spec: spec, NoiseStddev: 0.25, Seed: 3}, procs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ticks := denseTicks(run)
	// Half a learning window after the context change at 6 s.
	midLearning := int(6500 * time.Millisecond / run.Tick())

	ridge := DefaultPowerAPIConfig()
	ridge.LearnWindow = time.Second
	forced := ridge
	forced.InstabilityProb = 1
	sw := DefaultSmartWattsConfig()
	sw.MinSamples = 5
	factories := []Factory{NewPowerAPI(ridge), NewPowerAPI(forced), NewSmartWatts(sw)}
	type job struct {
		f     int
		seed  int64
		ticks int // observed before Release
	}
	var jobs []job
	for f := range factories {
		for seed := int64(0); seed < 6; seed++ {
			jobs = append(jobs, job{f, seed, len(ticks)}, job{f, seed, midLearning})
		}
	}

	// replay feeds a job's ticks through a StreamReplay and returns its
	// estimates as bits, copied out before the release.
	replay := func(j job) (ok []bool, rows [][]uint64, m Model) {
		m = factories[j.f].New(j.seed)
		r := NewStreamReplay(run.Roster, []Model{m}, j.ticks)
		for _, tk := range ticks[:j.ticks] {
			r.Observe(tk)
		}
		est := r.Estimates(0)
		ok = append([]bool(nil), est.OK...)
		for k := range est.OK {
			var row []uint64
			for _, w := range est.Row(k) {
				row = append(row, math.Float64bits(float64(w)))
			}
			rows = append(rows, row)
		}
		r.Release()
		return ok, rows, m
	}

	wantOK := make([][]bool, len(jobs))
	wantRows := make([][][]uint64, len(jobs))
	degenerate := 0
	for i, j := range jobs {
		var m Model
		wantOK[i], wantRows[i], m = replay(j)
		if j.ticks == midLearning {
			// The full job precedes this one.
			if j.f < 2 && wantOK[i][midLearning-1] {
				t.Fatalf("job %+v: estimating at tick %d; the replay must stop mid-learning", j, midLearning-1)
			}
			for k := range wantOK[i] {
				if wantOK[i][k] != wantOK[i-1][k] || !slices.Equal(wantRows[i][k], wantRows[i-1][k]) {
					t.Fatalf("job %+v tick %d: differs from the full replay", j, k)
				}
			}
			continue
		}
		if pa, isPA := m.(*PowerAPI); isPA && pa.Degenerate() {
			degenerate++
		}
		fits := 0
		for k := 1; k < len(wantOK[i]); k++ {
			if wantOK[i][k] && !wantOK[i][k-1] {
				fits++
			}
		}
		if j.f < 2 && fits < 4 {
			t.Fatalf("job %+v: %d calibrations, want several reset/fit cycles", j, fits)
		}
		if j.f == 2 && fits == 0 {
			t.Fatalf("job %+v: SmartWatts never estimated", j)
		}
	}
	if degenerate == 0 {
		t.Fatal("no model ended on a degenerate calibration")
	}

	check := func(i int) string {
		j := jobs[i]
		ok, rows, _ := replay(j)
		for k := range wantOK[i] {
			if ok[k] != wantOK[i][k] {
				return fmt.Sprintf("job %+v tick %d: ok %v, want %v", j, k, ok[k], wantOK[i][k])
			}
			for slot, b := range wantRows[i][k] {
				if rows[k][slot] != b {
					return fmt.Sprintf("job %+v tick %d slot %d: bits %x, want %x", j, k, slot, rows[k][slot], b)
				}
			}
		}
		return ""
	}
	const workers, rounds = 8, 9
	var wg sync.WaitGroup
	failures := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if msg := check((w*rounds + r) % len(jobs)); msg != "" {
					failures <- msg
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
}

// TestPowerAPIRegisterPoolConcurrentReplays runs always-degenerate PowerAPI
// models on several goroutines at once over a churned roster, each through
// a StreamReplay that is released afterwards, so RNG registers pass between
// models through the pool mid-campaign. Every calibration draws, and every
// model refits several times, so a register handed back at a fit (instead
// of at Release) would restart the stream on the next refit. Each model's
// estimates and favoured slots must be bit-identical to the same model
// drawing from its own unpooled register, run serially.
func TestPowerAPIRegisterPoolConcurrentReplays(t *testing.T) {
	spec := cpumodel.Dahu()
	mk := func(id, fn string, start, stop time.Duration) machine.Proc {
		p := pairProcs(t, fn, fn, 2)[0]
		p.ID, p.Start, p.Stop = id, start, stop
		return p
	}
	procs := []machine.Proc{
		mk("a", "fibonacci", 0, 0),
		mk("b", "matrixprod", 1500*time.Millisecond, 6*time.Second),
		mk("c", "int64", 3*time.Second, 0),
		mk("d", "rand", 4500*time.Millisecond, 8*time.Second),
	}
	run, err := machine.Simulate(machine.Config{Spec: spec, NoiseStddev: 0.25, Seed: 5}, procs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ticks := denseTicks(run)
	cfg := DefaultPowerAPIConfig()
	cfg.LearnWindow = time.Second
	cfg.InstabilityProb = 1
	factory := NewPowerAPI(cfg)

	// replay feeds every tick through a StreamReplay, recording the
	// model's favoured slot after each, and copies the estimates out
	// before releasing it.
	replay := func(m *PowerAPI) (ok []bool, rows [][]uint64, fav []int) {
		r := NewStreamReplay(run.Roster, []Model{m}, len(ticks))
		for _, tk := range ticks {
			r.Observe(tk)
			fav = append(fav, m.favSlot)
		}
		est := r.Estimates(0)
		ok = append([]bool(nil), est.OK...)
		for k := range est.OK {
			var row []uint64
			for _, w := range est.Row(k) {
				row = append(row, math.Float64bits(float64(w)))
			}
			rows = append(rows, row)
		}
		r.Release()
		return ok, rows, fav
	}

	const seeds = 12
	wantOK := make([][]bool, seeds)
	wantRows := make([][][]uint64, seeds)
	for seed := range wantOK {
		m := factory.New(int64(seed)).(*PowerAPI)
		m.rng = rng.New(int64(seed))
		var fav []int
		wantOK[seed], wantRows[seed], fav = replay(m)
		// The reference must continue one stream across refits: each
		// calibration draws Float64 at its fit, then Intn over the present
		// slots at its first estimate, from math/rand's stream for the seed.
		draws := rand.New(rand.NewSource(int64(seed)))
		fits := 0
		for k, ok := range wantOK[seed] {
			if !ok || k > 0 && wantOK[seed][k-1] {
				continue
			}
			fits++
			draws.Float64()
			var present []int
			for slot, smp := range ticks[k].Samples {
				if smp.Present() {
					present = append(present, slot)
				}
			}
			if want := present[draws.Intn(len(present))]; fav[k] != want {
				t.Fatalf("seed %d calibration %d: favoured slot %d, math/rand stream gives %d", seed, fits, fav[k], want)
			}
		}
		if fits < 3 {
			t.Fatalf("seed %d: %d calibrations, want at least 3", seed, fits)
		}
	}

	const workers, rounds = 6, 8
	var wg sync.WaitGroup
	failures := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seed := (w*rounds + i) % seeds
				ok, rows, _ := replay(factory.New(int64(seed)).(*PowerAPI))
				for k := range wantOK[seed] {
					if ok[k] != wantOK[seed][k] {
						failures <- fmt.Sprintf("seed %d tick %d: ok %v, want %v", seed, k, ok[k], wantOK[seed][k])
						return
					}
					for slot, b := range wantRows[seed][k] {
						if rows[k][slot] != b {
							failures <- fmt.Sprintf("seed %d tick %d slot %d: bits %x, want %x", seed, k, slot, rows[k][slot], b)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
}
