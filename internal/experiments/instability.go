package experiments

import (
	"fmt"
	"sort"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/report"
	"powerdiv/internal/workload"
)

// InstabilityRun is one repetition of the Fig 8 experiment: the mean share
// of machine power PowerAPI attributed to each application over the
// estimated part of the run.
type InstabilityRun struct {
	Share map[string]float64
}

// InstabilityResult holds the repeated identical runs of Fig 8: the paper
// ran MATRIXPROD against FLOAT64 twice on DAHU and got 90 % attributed to
// opposite applications.
type InstabilityResult struct {
	Machine string
	Fn0     string
	Fn1     string
	Runs    []InstabilityRun
}

// FlipFlopped reports whether any two runs disagree about which
// application consumes the most.
func (r InstabilityResult) FlipFlopped() bool {
	winner := func(run InstabilityRun) string {
		if run.Share[r.Fn0] >= run.Share[r.Fn1] {
			return r.Fn0
		}
		return r.Fn1
	}
	for i := 1; i < len(r.Runs); i++ {
		if winner(r.Runs[i]) != winner(r.Runs[0]) {
			return true
		}
	}
	return false
}

// Table renders the per-run attributions.
func (r InstabilityResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 8 — PowerAPI attribution across identical runs (%s vs %s on %s)", r.Fn0, r.Fn1, r.Machine),
		"run", r.Fn0+" share", r.Fn1+" share",
	)
	for i, run := range r.Runs {
		t.AddRow(fmt.Sprint(i+1), report.Percent(run.Share[r.Fn0]), report.Percent(run.Share[r.Fn1]))
	}
	return t
}

// Instability reproduces Fig 8: `repeats` identical runs of fn0 ∥ fn1 on
// the machine, each observed by a fresh PowerAPI instance with a different
// seed (two launches of the real tool differ in exactly that way: same
// workload, different internal state). On a many-core machine the
// degenerate-calibration pathology makes the winning application flip
// between runs.
//
// The repetitions differ only in the sensor-noise seed, so all of them ride
// one machine.StreamBatchSegments pass: the scheduling/power dynamics
// simulate once per constant segment, and each repetition's PowerAPI
// instance observes the shared segment under its own noise overlay. Every
// attribution is bit-identical to the one `repeats` independent
// simulations produce (the batch equivalence test pins this); only the
// wall-clock cost changes.
func Instability(cfg machine.Config, fn0, fn1 string, threads, repeats int, seed int64) (InstabilityResult, error) {
	res := InstabilityResult{Machine: cfg.Spec.Name, Fn0: fn0, Fn1: fn1}
	w0, ok := workload.StressByName(fn0)
	if !ok {
		return res, fmt.Errorf("unknown stress function %q", fn0)
	}
	w1, ok := workload.StressByName(fn1)
	if !ok {
		return res, fmt.Errorf("unknown stress function %q", fn1)
	}
	if repeats <= 0 {
		return res, nil
	}
	const runFor = 30 * time.Second
	procs := []machine.Proc{
		{ID: fn0, Workload: w0, Threads: threads},
		{ID: fn1, Workload: w1, Threads: threads},
	}
	ids := []string{fn0, fn1}
	sort.Strings(ids)
	roster := machine.NewRoster(ids)

	factory := models.NewPowerAPI(models.DefaultPowerAPIConfig())
	tick := cfg.TickInterval()
	maxTicks := int(runFor/tick) + 1
	logical := cfg.Spec.Topology.LogicalCPUs()
	seeds := make([]int64, repeats)
	replays := make([]*models.StreamReplay, repeats)
	for rep := 0; rep < repeats; rep++ {
		seeds[rep] = seed + int64(rep)
		model := factory.New(seed + int64(rep)*7919)
		replays[rep] = models.NewStreamReplay(roster, []models.Model{model}, maxTicks)
	}

	// One sample column per segment, shared by every repetition: the noise
	// overlay never touches the per-process columns.
	scratch := make([]models.ProcSample, roster.Len())
	segTicks := models.SegmentTicks{Tick: models.Tick{
		Interval:    tick,
		LogicalCPUs: logical,
		Roster:      roster,
		Samples:     scratch,
	}}
	_, err := machine.StreamBatchSegments(cfg, procs, runFor, seeds, func(rep int, seg *machine.Segment) error {
		rec := seg.Rec
		if rep == 0 {
			for slot := range scratch {
				pt := rec.Procs[slot]
				scratch[slot] = models.ProcSample{
					CPUTime:    pt.CPUTime,
					Counters:   pt.Counters,
					Threads:    pt.Threads,
					TrueActive: pt.ActivePower,
				}
			}
		}
		segTicks.Tick.At = rec.At
		segTicks.Tick.MachinePower = seg.Powers[0]
		segTicks.Tick.Freq = rec.Freq
		segTicks.Powers = seg.Powers
		replays[rep].ObserveSegment(&segTicks)
		return nil
	})
	if err != nil {
		return res, err
	}

	rosterIDs := roster.IDs()
	for rep := 0; rep < repeats; rep++ {
		est := replays[rep].Estimates(0)
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
	return res, nil
}
