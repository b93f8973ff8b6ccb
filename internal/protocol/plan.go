package protocol

import (
	"slices"
	"strings"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/rng"
	"powerdiv/internal/units"
)

// A campaignPlan is one Evaluate call's phase 2–3 setup, compiled once so
// that each scenario pays only for its own work: simulate → observe →
// score. It holds the campaign's inputs and the rng.Derive state after the
// campaign seed and each fixed label — (seed, kind) and (seed, "model") —
// so a scenario's seeds fold in only the factory name and its label. A
// one-scenario call compiles a plan of its own, so its rows are
// bit-identical to the whole campaign's. A plan is read-only once built
// and is shared by every worker.
type campaignPlan struct {
	// ctx.RunFor is the scenarios' horizon: the traffic or timeline window
	// for those kinds.
	ctx  Context
	fs   []models.Factory
	kind CampaignKind

	baselines  map[string]division.Baseline
	objectives []Objective
	r0         units.Watts

	kindSeed, modelSeed rng.SeedHash
}

// newCampaignPlan compiles the seed state of ctx and kind; Evaluate fills
// in the rest of the campaign. The plan is a value, so a one-scenario call
// keeps it on the stack.
func newCampaignPlan(ctx Context, fs []models.Factory, kind CampaignKind) campaignPlan {
	seed := rng.NewSeedHash(ctx.Seed)
	return campaignPlan{
		ctx:       ctx,
		fs:        fs,
		kind:      kind,
		kindSeed:  seed.Part(string(kind)),
		modelSeed: seed.Part("model"),
	}
}

// scenarioRun is one scenario's phase 2 inputs, derived once per scenario:
// the label seeds and messages name the scenario by, the machine config
// under the derived seed, the roster — sorted-ID order, exactly the slot
// order the simulator streams its columns in — and the pooled scoring
// view, which also holds the simulator processes in that order. Handing
// the processes over sorted lets the simulator schedule them in place.
type scenarioRun struct {
	label  string
	cfg    machine.Config
	roster *machine.Roster
	view   *scoringView
}

// run derives s's run: its label under the plan's kind, the simulator
// seeded from the kind's state folded with that label, and the processes
// and roster in ID order. The caller releases run.view.
func (p *campaignPlan) run(s Scenario) scenarioRun {
	label := p.kind.label(s)
	r := scenarioRun{label: label, cfg: p.ctx.Machine}
	r.cfg.Seed = p.kindSeed.Part(label).Seed()
	v := newScoringView(len(s.Apps), r.cfg.ReservedTicks(p.ctx.RunFor), r.cfg.TickInterval())
	for _, a := range s.Apps {
		v.procs = append(v.procs, a.proc())
	}
	slices.SortFunc(v.procs, func(a, b machine.Proc) int { return strings.Compare(a.ID, b.ID) })
	for i := range v.procs {
		v.ids = append(v.ids, v.procs[i].ID)
	}
	r.roster = machine.NewRoster(v.ids)
	r.view = v
	return r
}

// newModels builds every factory's model for the scenario labelled label,
// each under its rng.Derive(campaign seed, "model", name, label) seed.
func (p *campaignPlan) newModels(label string) []models.Model {
	ms := make([]models.Model, len(p.fs))
	for m, f := range p.fs {
		ms[m] = f.New(p.modelSeed.Part(f.Name).Part(label).Seed())
	}
	return ms
}
