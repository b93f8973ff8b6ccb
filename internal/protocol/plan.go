package protocol

import (
	"slices"
	"strconv"
	"strings"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// A campaignPlan is one campaign's phase 2–3 setup, compiled once per
// (Context, factories) call so that each scenario pays only for its own
// work: simulate → observe → score. It holds the deriveSeed state after
// the campaign seed and each fixed label — (seed, "pair"), (seed,
// "traffic") and (seed, "model", factory name) per factory — so a
// scenario's seeds fold in only its label; FNV-1a is sequential, so every
// derived seed equals deriveSeed's.
//
// Both campaign kinds (EvaluateModelsStreamingCtx,
// EvaluateTrafficStreamingCtx) build one plan per call. The exported
// per-scenario units (EvaluateScenarioStreaming,
// EvaluateTrafficScenarioStreaming) build a one-shot plan per scenario, so
// their rows are bit-identical to the campaign path's. A plan is read-only
// once built and is shared by every worker.
type campaignPlan struct {
	ctx Context
	fs  []models.Factory

	pairSeed, trafficSeed seedHash
	// modelSeeds is index-aligned with fs.
	modelSeeds []seedHash
}

// newCampaignPlan compiles the campaign-invariant setup of ctx and fs.
func newCampaignPlan(ctx Context, fs []models.Factory) *campaignPlan {
	seed := newSeedHash(ctx.Seed)
	p := &campaignPlan{
		ctx:         ctx,
		fs:          fs,
		pairSeed:    seed.part(string(PairCampaign)),
		trafficSeed: seed.part(string(TrafficCampaign)),
		modelSeeds:  make([]seedHash, len(fs)),
	}
	model := seed.part("model")
	for m, f := range fs {
		p.modelSeeds[m] = model.part(f.Name)
	}
	return p
}

// scenarioRun is one scenario's phase 2 inputs, derived once per scenario:
// the label seeds and messages name the scenario by, the machine config
// under the derived seed, the simulator processes in ID order, and the
// roster — the same sorted order, exactly the slot order the simulator
// streams its columns in. Handing the processes over sorted lets the
// simulator schedule them in place.
type scenarioRun struct {
	label  string
	cfg    machine.Config
	procs  []machine.Proc
	roster *machine.Roster
}

// pairRun derives a pair-campaign scenario's run.
func (p *campaignPlan) pairRun(s Scenario) scenarioRun { return p.run(s, s.Label(), p.pairSeed) }

// trafficRun derives a traffic-campaign scenario's run.
func (p *campaignPlan) trafficRun(s Scenario) scenarioRun { return p.run(s, s.Label(), p.trafficSeed) }

// run derives s's run under label, seeding the simulator from kind's state
// folded with the label.
func (p *campaignPlan) run(s Scenario, label string, kind seedHash) scenarioRun {
	r := scenarioRun{label: label, cfg: p.ctx.Machine, procs: make([]machine.Proc, len(s.Apps))}
	r.cfg.Seed = kind.part(label).seed()
	for i, a := range s.Apps {
		r.procs[i] = a.proc()
	}
	slices.SortFunc(r.procs, func(a, b machine.Proc) int { return strings.Compare(a.ID, b.ID) })
	ids := make([]string, len(r.procs))
	for i := range r.procs {
		ids[i] = r.procs[i].ID
	}
	r.roster = machine.NewRoster(ids)
	return r
}

// newModels builds every factory's model for the scenario labelled label,
// each under its deriveSeed(campaign seed, "model", name, label) seed.
func (p *campaignPlan) newModels(label string) []models.Model {
	ms := make([]models.Model, len(p.fs))
	for m, f := range p.fs {
		ms[m] = f.New(p.modelSeeds[m].part(label).seed())
	}
	return ms
}

// seedHash is deriveSeed's FNV-1a (64-bit) state part-way through its
// input. Folding parts into a saved state gives exactly the hash of the
// whole input, so a plan derives every scenario's seeds from states it
// computed once.
type seedHash uint64

const (
	fnvOffset64 seedHash = 14695981039346656037
	fnvPrime64  seedHash = 1099511628211
)

// newSeedHash starts a derivation from seed's decimal form.
func newSeedHash(seed int64) seedHash {
	var buf [20]byte
	h := fnvOffset64
	for _, c := range strconv.AppendInt(buf[:0], seed, 10) {
		h = (h ^ seedHash(c)) * fnvPrime64
	}
	return h
}

// part folds one label part: a zero separator byte, then the part.
func (h seedHash) part(s string) seedHash {
	h *= fnvPrime64
	for i := 0; i < len(s); i++ {
		h = (h ^ seedHash(s[i])) * fnvPrime64
	}
	return h
}

// seed is the derived seed of the input folded so far.
func (h seedHash) seed() int64 { return int64(h) }
