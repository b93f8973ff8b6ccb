package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// A campaignPlan is one campaign's phase 2–3 setup, compiled once per
// (Context, factories) call so that each scenario pays only for its own
// work: simulate → observe → score. It holds
//
//   - the deriveSeed state after the campaign seed and each fixed label —
//     (seed, "pair"), (seed, "traffic") and (seed, "model", factory name)
//     per factory — so a scenario's seeds fold in only its label; FNV-1a is
//     sequential, so every derived seed equals deriveSeed's;
//   - the evaluation-digest key's campaign constants (machine spec and
//     settings, RunFor, campaign seed, StableWindow, every factory's
//     name=fingerprint), hashed once into a 32-byte prefix;
//   - each distinct app's process-key fragment, hashed once.
//
// Both campaign kinds (EvaluateModelsStreamingCtx,
// EvaluateTrafficStreamingCtx) build one plan per call. The exported
// per-scenario units (EvaluateScenarioStreaming,
// EvaluateTrafficScenarioStreaming) build a one-shot plan per scenario, so
// their rows — and their evaluation-digest keys — are bit-identical to the
// campaign path's. A plan is read-only once built (the key parts are built
// under a sync.Once on first use) and is shared by every worker.
type campaignPlan struct {
	ctx Context
	fs  []models.Factory
	// scenarios lists the campaign's scenarios for the fragment memo; nil
	// for a one-shot plan, which hashes its fragments directly.
	scenarios []Scenario

	pairSeed, trafficSeed seedHash
	// modelSeeds is index-aligned with fs.
	modelSeeds []seedHash

	keyOnce sync.Once
	// keyed is false when some factory has no fingerprint, which bypasses
	// the evaluation-digest tier.
	keyed  bool
	prefix evalSum
	// frags memoizes each app's process-key digest by process ID. An entry
	// serves a process only when every field the fragment encodes matches
	// (procKeyEqual); any other process is hashed directly.
	frags map[string]procFrag
}

// procFrag is one memoized process-key fragment.
type procFrag struct {
	proc machine.Proc
	sum  evalSum
}

// newCampaignPlan compiles the campaign-invariant setup of ctx and fs.
// scenarios, when non-nil, seeds the fragment memo.
func newCampaignPlan(ctx Context, fs []models.Factory, scenarios []Scenario) *campaignPlan {
	seed := newSeedHash(ctx.Seed)
	p := &campaignPlan{
		ctx:         ctx,
		fs:          fs,
		scenarios:   scenarios,
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

// scenarioRun is one scenario's phase 2 inputs, derived once per scenario
// and shared by the digest key and the evaluation: the label seeds and
// messages name the scenario by, the machine config under the derived
// seed, the simulator processes in ID order, and the roster — the same
// sorted order, exactly the slot order the simulator streams its columns
// in. Handing the processes over sorted lets the simulator schedule them
// in place.
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

// buildKey hashes the evaluation key's campaign constants and the
// fragment memo. It runs once per plan, on the first key.
func (p *campaignPlan) buildKey() {
	for _, f := range p.fs {
		if f.Fingerprint == "" {
			return
		}
	}
	p.keyed = true
	b := append(make([]byte, 0, 2048), "eval2|"...)
	b = appendMachineKey(b, p.ctx.Machine)
	b = append(b, "|dur:"...)
	b = keyI(b, int64(p.ctx.RunFor))
	b = append(b, "|cseed:"...)
	b = keyI(b, p.ctx.Seed)
	b = append(b, "|sw:"...)
	b = keyI(b, int64(p.ctx.StableWindow))
	for _, f := range p.fs {
		b = append(b, "|f:"...)
		b = append(b, f.Name...)
		b = append(b, '=')
		b = append(b, f.Fingerprint...)
	}
	p.prefix = sha256.Sum256(b)
	if p.scenarios == nil {
		return
	}
	p.frags = map[string]procFrag{}
	for _, s := range p.scenarios {
		for _, a := range s.Apps {
			if _, ok := p.frags[a.ID]; !ok {
				proc := a.proc()
				p.frags[a.ID] = procFrag{proc: proc, sum: procSum(&proc)}
			}
		}
	}
}

// procSum is the SHA-256 of one process's key fragment.
func procSum(proc *machine.Proc) evalSum {
	var stack [512]byte
	return sha256.Sum256(appendProcKey(stack[:0], proc))
}

// procKey returns proc's fragment digest, from the memo when it holds
// this exact process.
func (p *campaignPlan) procKey(proc *machine.Proc) evalSum {
	if f, ok := p.frags[proc.ID]; ok && procKeyEqual(&f.proc, proc) {
		return f.sum
	}
	return procSum(proc)
}

// evalKey fingerprints everything a pair scenario's evaluation depends on:
// the plan's prefix (the campaign constants), then the scenario's derived
// seed, its process fragments in ID order, and its truth shares. Every
// variable-length part is length-prefixed, so distinct inputs encode
// distinctly. The encoding is ~100 bytes for a pair and lives on the
// stack, so a key allocates nothing. ok is false — and the tier is
// bypassed — when any factory lacks a fingerprint.
func (p *campaignPlan) evalKey(run *scenarioRun, truths []division.Shares) (evalSum, bool) {
	p.keyOnce.Do(p.buildKey)
	if !p.keyed {
		return evalSum{}, false
	}
	var stack [1024]byte
	b := append(stack[:0], p.prefix[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(run.cfg.Seed))
	b = binary.AppendUvarint(b, uint64(len(run.procs)))
	for i := range run.procs {
		sum := p.procKey(&run.procs[i])
		b = append(b, sum[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(truths)))
	for _, truth := range truths {
		b = binary.AppendUvarint(b, uint64(len(truth)))
		var ids [keyStackProcs]string
		for _, id := range sortedKeys(ids[:0], truth) {
			b = binary.AppendUvarint(b, uint64(len(id)))
			b = append(b, id...)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(truth[id]))
		}
	}
	return sha256.Sum256(b), true
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
