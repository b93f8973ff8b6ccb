package experiments

import (
	"math"
	"sort"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// unbatchedInstability is the pre-batch reference: `repeats` fully
// independent simulations, one machine.StreamSegments pass each with
// every tick observed as a one-tick segment, under the same seed
// derivations Instability uses. It exists only to pin the batch
// equivalence.
func unbatchedInstability(t *testing.T, cfg machine.Config, fn0, fn1 string, threads, repeats int, seed int64) InstabilityResult {
	t.Helper()
	res := InstabilityResult{Machine: cfg.Spec.Name, Fn0: fn0, Fn1: fn1}
	w0, _ := workload.StressByName(fn0)
	w1, _ := workload.StressByName(fn1)
	const runFor = 30 * time.Second
	ids := []string{fn0, fn1}
	sort.Strings(ids)
	roster := machine.NewRoster(ids)
	factory := models.NewPowerAPI(models.DefaultPowerAPIConfig())
	tick := cfg.TickInterval()
	maxTicks := int(runFor/tick) + 1
	logical := cfg.Spec.Topology.LogicalCPUs()
	for rep := 0; rep < repeats; rep++ {
		run := cfg
		run.Seed = seed + int64(rep)
		procs := []machine.Proc{
			{ID: fn0, Workload: w0, Threads: threads},
			{ID: fn1, Workload: w1, Threads: threads},
		}
		model := factory.New(seed + int64(rep)*7919)
		replay := models.NewStreamReplay(roster, []models.Model{model}, maxTicks)
		scratch := make([]models.ProcSample, roster.Len())
		power := make([]units.Watts, 1)
		_, err := machine.StreamSegments(run, procs, runFor, func(seg *machine.Segment) error {
			rec := seg.Rec
			for slot := range scratch {
				pt := rec.Procs[slot]
				scratch[slot] = models.ProcSample{
					CPUTime:    pt.CPUTime,
					Counters:   pt.Counters,
					Threads:    pt.Threads,
					TrueActive: pt.ActivePower,
				}
			}
			for i, p := range seg.Powers {
				power[0] = p
				replay.ObserveSegment(&models.SegmentTicks{Tick: models.Tick{
					At:           seg.At(i),
					Interval:     tick,
					MachinePower: p,
					LogicalCPUs:  logical,
					Freq:         rec.Freq,
					Roster:       roster,
					Samples:      scratch,
				}, Powers: power})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rosterIDs := roster.IDs()
		est := replay.Estimates(0)
		sums := make([]float64, len(rosterIDs))
		var total float64
		for i := range est.OK {
			if !est.OK[i] {
				continue
			}
			for slot, w := range est.Row(i) {
				sums[slot] += float64(w)
				total += float64(w)
			}
		}
		ir := InstabilityRun{Share: map[string]float64{}}
		if total > 0 {
			for slot, s := range sums {
				ir.Share[rosterIDs[slot]] = s / total
			}
		}
		res.Runs = append(res.Runs, ir)
	}
	return res
}

// TestInstabilityBatchedMatchesUnbatched pins the Fig 8 batching: riding
// every repetition on one StreamBatchSegments pass must leave each repetition's
// attribution bit-identical to a fully independent simulation with the
// same seeds, on both machines.
func TestInstabilityBatchedMatchesUnbatched(t *testing.T) {
	t.Parallel()
	for _, sp := range []cpumodel.Spec{cpumodel.Dahu(), cpumodel.SmallIntel()} {
		cfg := machine.Config{Spec: sp, NoiseStddev: 0.25, Hyperthreading: true, Turbo: true}
		const repeats = 3
		got, err := Instability(cfg, "matrixprod", "double", 4, repeats, 17)
		if err != nil {
			t.Fatal(err)
		}
		want := unbatchedInstability(t, cfg, "matrixprod", "double", 4, repeats, 17)
		if len(got.Runs) != repeats || len(want.Runs) != repeats {
			t.Fatalf("%s: %d/%d runs, want %d", sp.Name, len(got.Runs), len(want.Runs), repeats)
		}
		for rep := range want.Runs {
			for id, ws := range want.Runs[rep].Share {
				gs, ok := got.Runs[rep].Share[id]
				if !ok || math.Float64bits(gs) != math.Float64bits(ws) {
					t.Errorf("%s rep %d %s: batched share %v != unbatched %v", sp.Name, rep, id, gs, ws)
				}
			}
			if len(got.Runs[rep].Share) != len(want.Runs[rep].Share) {
				t.Errorf("%s rep %d: share map sizes differ", sp.Name, rep)
			}
		}
	}
}
