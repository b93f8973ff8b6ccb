package protocol

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/trace"
	"powerdiv/internal/units"
)

// This file is phases 2–3 of every campaign kind: simulate → observe →
// score in one pass per scenario, with O(ticks-in-flight) simulator state.
// The models observe each segment as the simulator produces it, and the
// scenario accumulates exactly the scoring view Eq 5 needs — per-tick
// power plus one presence column per presence run — so per scenario the
// only O(ticks) state kept is the per-model estimate matrices and that
// view, both pooled. Runs are never materialized and never cached: the
// byte-capped baseline tier (cache.go) keeps only phase 1's baselines, and
// a scored scenario is written once, straight into the campaign's Result.
//
// A pair is a traffic scenario with a fixed truth and a stable window. The
// kinds share one scoring tail and differ in two things, both following
// from CampaignKind:
//   - the truth source: a pair scores every tick against one fixed share
//     vector per objective, from the baselines; traffic and timelines
//     score each presence run against Eq 3 over the instances present;
//   - the window: a pair scores the least-extreme stable window of the
//     ticks the model estimated (one per distinct OK vector); traffic and
//     timelines score every busy tick — churn is what is under test.
//
// The golden corpus (internal/experiments/testdata) pins the tables bit
// for bit, and the map-reference test pins pair scoring against the
// original per-tick map pipeline.

// scenario runs phases 2–3 for scenario i, writing its rows into res. The
// truth source is resolved before the simulator starts, so a missing
// baseline fails without simulating.
//
// cctx is polled once per simulated tick (segments poll once per covered
// tick, keeping the poll count of the per-tick engine), so a cancelled
// context aborts the simulator mid-run instead of after the scenario — the
// error unwraps to cctx's cause via errors.Is. Cancellation only ever
// aborts; it cannot perturb the float accumulation order of a run that
// completes.
func (p *campaignPlan) scenario(cctx context.Context, s Scenario, res Result, i int) error {
	done := observeScenario()
	run := p.run(s)
	defer run.view.release()
	if err := p.truthSource(s, &run, res, i); err != nil {
		return err
	}
	replay, err := p.stream(cctx, &run)
	if err != nil {
		return err
	}
	defer replay.Release()
	if err := p.score(s, &run, replay, res, i); err != nil {
		return err
	}
	done()
	return nil
}

// truthSource resolves what s's models are scored against under the
// plan's kind, from the phase 1 baselines laid out per roster slot: a pair
// campaign's fixed share vectors, one per objective, written into the
// run's view in roster-slot order and into scenario i's rows of res in
// application order; a traffic or timeline campaign computes Eq 3 once
// per presence run from the slot baselines (fillTruths).
func (p *campaignPlan) truthSource(s Scenario, run *scenarioRun, res Result, i int) error {
	pair := p.kind == PairCampaign
	if pair && len(s.Apps) < 2 {
		return fmt.Errorf("protocol: scenario %q needs ≥2 applications", s.Label())
	}
	v := run.view
	if err := v.slotBaselines(s, p.baselines); err != nil || !pair {
		return err
	}
	v.appSlots = resize(v.appSlots, len(s.Apps))
	for a, app := range s.Apps {
		v.appSlots[a] = slices.Index(v.ids, app.ID)
	}
	v.objs = len(p.objectives)
	v.slab = resize(v.slab, v.objs*v.n)
	for o, obj := range p.objectives {
		out := v.slab[o*v.n : (o+1)*v.n]
		switch obj {
		case ObjectiveActive:
			out = division.TruthVectorInto(out, v.slots, nil)
		case ObjectiveResidualAware:
			out = division.ResidualAwareTruthInto(out, v.slots)
		case ObjectiveNominalResidual:
			out = division.NominalResidualTruthInto(out, v.slots, p.r0)
		default:
			return fmt.Errorf("protocol: unknown objective %d", int(obj))
		}
		if out == nil {
			return fmt.Errorf("protocol: degenerate objective %v for %q", obj, s.Label())
		}
		truth := res.pairs.vector(i, o, len(s.Apps))
		for a, slot := range v.appSlots {
			truth[a] = out[slot]
		}
	}
	return nil
}

// slotBaselines lays out each roster slot's baseline: the baseline of
// the instance's application type, shared by every instance of it.
func (v *scoringView) slotBaselines(s Scenario, baselines map[string]division.Baseline) error {
	for _, id := range v.ids {
		// Rosters are small: a linear scan beats building a map per
		// scenario.
		i := 0
		for i < len(s.Apps) && s.Apps[i].ID != id {
			i++
		}
		if i == len(s.Apps) {
			return fmt.Errorf("protocol: roster instance %s not in scenario %q", id, s.Label())
		}
		b, ok := baselines[s.Apps[i].baselineID()]
		if !ok {
			return fmt.Errorf("protocol: no baseline for %s (run phase 1 first)", s.Apps[i].baselineID())
		}
		v.slots = append(v.slots, b)
	}
	return nil
}

// stream simulates the run once while every model observes it segment by
// segment, accumulating the run's scoring view alongside. The caller
// releases the replay.
func (p *campaignPlan) stream(cctx context.Context, run *scenarioRun) (*models.StreamReplay, error) {
	v := run.view
	replay := models.NewStreamReplay(run.roster, p.newModels(run.label), run.cfg.ReservedTicks(p.ctx.RunFor))
	cpus := run.cfg.Spec.Topology.LogicalCPUs()
	err := machine.Stream(run.cfg, v.procs, p.ctx.RunFor, func(seg *machine.Segment) error {
		for range seg.Powers {
			if err := cctx.Err(); err != nil {
				return err
			}
		}
		replay.ObserveSimulated(seg, cpus)
		v.observeSegment(seg)
		return nil
	})
	if err != nil {
		replay.Release()
		return nil, fmt.Errorf("protocol: scenario %q: %w", run.label, err)
	}
	return replay, nil
}

// score is the scoring tail of every kind: the truth once per presence
// run, then each model's Eq 5 over its window into scenario i's rows of
// res — per objective for pairs, whose estimated shares are copied out of
// roster-slot order into application order. Its allocations do not depend
// on the run length.
func (p *campaignPlan) score(s Scenario, run *scenarioRun, replay *models.StreamReplay, res Result, i int) error {
	v := run.view
	pair := p.kind == PairCampaign
	busy := v.fillTruths(pair)
	if !pair && busy == 0 {
		return fmt.Errorf("protocol: traffic scenario %q never ran any instance", s.Label())
	}
	// The window memo aliases this replay's OK vectors, so it is emptied
	// before the view is reused.
	defer func() {
		clear(v.windows)
		v.windows = v.windows[:0]
	}()
	k := len(s.Apps)
	for m, f := range p.fs {
		est := replay.Estimates(m)
		if !pair {
			scored, _ := v.sum(est, 0, len(v.power), false)
			ev := res.trafficRow(m, i)
			*ev = TrafficEvaluation{Scenario: s, Model: f.Name, Coverage: float64(scored) / float64(busy), BusyTicks: busy, ScoredTicks: scored}
			if scored > 0 {
				ae, err := v.errs[0].Mean()
				if err != nil {
					return fmt.Errorf("protocol: traffic scenario %q: %w", s.Label(), err)
				}
				ev.AE = ae
			}
			continue
		}
		lo, hi := v.window(p.ctx, est.OK)
		if hi <= lo {
			return fmt.Errorf("protocol: scenario %q: model %s produced no estimates", run.label, f.Name)
		}
		scored, meanPower := v.sum(est, lo, hi, true)
		estShare := res.pairs.vector(i, v.objs+m, k)
		if meanPower > 0 {
			for a, slot := range v.appSlots {
				estShare[a] = v.meanEst[slot] / meanPower
			}
		}
		for o := 0; o < v.objs; o++ {
			ae, err := v.errs[o].Mean()
			if err != nil {
				return fmt.Errorf("protocol: scenario %q: %w", run.label, err)
			}
			truth := res.pairs.vector(i, o, k)
			ev := res.pairRow(m, o, i)
			*ev = Evaluation{Scenario: s, Model: f.Name, AE: ae, Truth: truth, EstShare: estShare, ScoredTicks: scored}
			if k == 2 {
				ev.Point = division.RatioPoint{
					X:     division.RatioPercent(truth[0], truth[1]),
					Y:     division.RatioPercent(estShare[0], estShare[1]),
					Label: run.label,
				}
			}
		}
	}
	return nil
}

// scoringView is the state a scenario accumulates for scoring: the
// per-tick machine power plus one presence column per presence run — a
// maximal stretch of consecutive segments with the same instances present.
// Presence only changes at segment boundaries, so the view holds a handful
// of columns however long the run, and the truth is laid out once per run
// rather than once per tick. Tick i's time is i·interval. The view also
// carries the run's setup and the scoring tail's scratch, so one pooled
// object holds every buffer a scenario needs from its setup to its rows;
// all of it is valid only while the scenario runs.
type scoringView struct {
	// procs are the simulator processes and ids their IDs, in roster
	// order; slots holds each roster slot's baseline, and appSlots each
	// pair application's roster slot, in Scenario.Apps order.
	procs    []machine.Proc
	ids      []string
	slots    []division.Baseline
	appSlots []int

	power []units.Watts
	// runStart[r] is run r's first tick; run r ends where run r+1 starts
	// (the last run at len(power)).
	runStart []int
	// presence holds run r's column at [r*n, (r+1)*n).
	presence []bool
	n        int
	interval time.Duration

	// truths[r*objs+o] is run r's truth vector for objective o (nil: run r
	// is outside the objective); the vectors live in slab, in roster-slot
	// order — a pair's one vector per objective, every run sharing it.
	truths [][]float64
	slab   []float64
	objs   int
	// errs holds one running Eq 5 sum per objective; meanEst sums the
	// scored estimate columns of a pair model, slot by slot.
	errs    []division.ErrorSum
	meanEst []float64
	// scored is the stable-window search's series; windows memoizes each
	// distinct OK vector's pair window (see window).
	scored  *trace.Series
	windows []scoringWindow
}

// scoringViews pools views across scenarios: a view's slices keep their
// capacity, so a worker's next scenario of similar length appends into
// them without allocating. Reuse changes only where the buffers live,
// never an accumulation order, so results stay bit-identical.
var scoringViews = sync.Pool{New: func() any { return &scoringView{scored: trace.New()} }}

// newScoringView returns an empty pooled view for n roster slots ticking
// every interval, with room for capTicks ticks of power. The caller hands
// it back with release.
func newScoringView(n, capTicks int, interval time.Duration) *scoringView {
	v := scoringViews.Get().(*scoringView)
	v.power = slices.Grow(v.power[:0], capTicks)
	v.runStart = v.runStart[:0]
	v.presence = v.presence[:0]
	v.n, v.interval = n, interval
	return v
}

// release empties the run's setup — the pool pins no process, workload or
// ID — and hands the view back to the pool; nothing may use it after.
func (v *scoringView) release() {
	clear(v.procs)
	clear(v.ids)
	clear(v.slots)
	v.procs, v.ids, v.slots = v.procs[:0], v.ids[:0], v.slots[:0]
	scoringViews.Put(v)
}

// observeSegment appends a constant segment's scoring state: its per-tick
// power, and its presence column when that differs from the current run's.
func (v *scoringView) observeSegment(seg *machine.Segment) {
	procs := seg.Rec.Procs
	same := len(v.runStart) > 0
	if same {
		last := v.column(len(v.runStart) - 1)
		for slot := range last {
			if last[slot] != procs[slot].Present() {
				same = false
				break
			}
		}
	}
	if !same {
		v.runStart = append(v.runStart, len(v.power))
		for slot := 0; slot < v.n; slot++ {
			v.presence = append(v.presence, procs[slot].Present())
		}
	}
	v.power = append(v.power, seg.Powers...)
}

// column returns run r's presence column.
func (v *scoringView) column(r int) []bool { return v.presence[r*v.n : (r+1)*v.n] }

// runEnd returns the tick one past run r's last.
func (v *scoringView) runEnd(r int) int {
	if r+1 < len(v.runStart) {
		return v.runStart[r+1]
	}
	return len(v.power)
}

// fillTruths points every run at its truth vectors and returns the busy
// tick count — ticks with at least one instance present. A pair's vectors
// are already in the slab (truthSource) and every run shares them;
// otherwise each busy run gets Eq 3 over the slot baselines of its present
// instances (AbsentShare marks the others), and idle or degenerate runs
// get nil. The truth is model-independent, so every model scores against
// the same vectors.
func (v *scoringView) fillTruths(pair bool) (busy int) {
	runs, n := len(v.runStart), v.n
	if !pair {
		v.objs = 1
		v.slab = resize(v.slab, runs*n)
	}
	v.truths = resize(v.truths, runs*v.objs)
	for r := 0; r < runs; r++ {
		col, row := v.column(r), v.truths[r*v.objs:(r+1)*v.objs]
		present := slices.Contains(col, true)
		if present {
			busy += v.runEnd(r) - v.runStart[r]
		}
		switch {
		case pair:
			for o := range row {
				row[o] = v.slab[o*n : (o+1)*n]
			}
		case present:
			row[0] = division.TruthVectorInto(v.slab[r*n:(r+1)*n], v.slots, col)
		default:
			row[0] = nil
		}
	}
	return busy
}

// sum is Eq 5's one pass over est: every tick of [lo, hi) the model
// estimated, in a run with a truth, is added to v.errs — one ErrorSum per
// objective. With mean set it also sums the scored columns into v.meanEst
// and their power, for a pair row's mean estimated shares. Each sum visits
// the scored ticks in tick order and the slots in roster order — sorted-ID
// order — so every float matches the map pipeline bit for bit (the
// map-reference test pins this). It returns the scored tick count and the
// power sum.
func (v *scoringView) sum(est *models.DenseEstimates, lo, hi int, mean bool) (scored int, power float64) {
	v.errs = resize(v.errs, v.objs)
	clear(v.errs)
	if mean {
		v.meanEst = resize(v.meanEst, v.n)
		clear(v.meanEst)
	}
	for r := range v.runStart {
		truths := v.truths[r*v.objs : (r+1)*v.objs]
		if truths[0] == nil {
			continue
		}
		for t, end := max(v.runStart[r], lo), min(v.runEnd(r), hi); t < end; t++ {
			if !est.OK[t] {
				continue
			}
			row, p := est.Row(t), v.power[t]
			if mean {
				for slot, w := range row {
					v.meanEst[slot] += float64(w)
				}
				power += float64(p)
			}
			for o, truth := range truths {
				v.errs[o].Add(row, p, truth)
			}
			scored++
		}
	}
	return scored, power
}

// scoringWindow memoizes one distinct OK vector's pair window, in ticks.
// The ok slice is aliased, not copied: estimate matrices are immutable
// once scoring starts.
type scoringWindow struct {
	ok     []bool
	lo, hi int
}

// window returns a pair model's scoring window as ticks [lo, hi): the
// stable window of the ticks it estimated (ok). The window depends on the
// model only through ok, and most models estimate every tick, so it is
// computed once per distinct OK vector, not once per model.
func (v *scoringView) window(ctx Context, ok []bool) (lo, hi int) {
	for _, w := range v.windows {
		if slices.Equal(w.ok, ok) {
			return w.lo, w.hi
		}
	}
	from, to := stableScoringWindow(ctx, v.power, v.interval, ok, v.scored)
	// Tick times are exact multiples of the interval: the first tick at or
	// after a bound is its ceiling.
	lo, hi = int((from+v.interval-1)/v.interval), int((to+v.interval-1)/v.interval)
	v.windows = append(v.windows, scoringWindow{ok: ok, lo: lo, hi: hi})
	return lo, hi
}

// resize returns buf resized to n entries, reallocating only on growth;
// the contents are unspecified — callers overwrite or clear every entry.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
