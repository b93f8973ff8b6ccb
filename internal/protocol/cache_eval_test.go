package protocol

import (
	"context"
	"maps"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/workload"
)

// evalTestCampaign runs one small two-scenario streaming campaign and
// returns its error tables.
func evalTestCampaign(t *testing.T, ctx Context, strip bool) map[string][]Evaluation {
	t.Helper()
	a0, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := StressApp("int64", 1)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{Apps: []AppSpec{a0, a1}},
		{Apps: []AppSpec{a1, a2}},
	}
	spec := cpumodel.SmallIntel()
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		fs := goldenFactories(baselines, spec)
		if strip {
			for i := range fs {
				fs[i].Fingerprint = ""
			}
		}
		return fs
	}
	got, err := EvaluateModelsStreaming(ctx, scenarios, factories, ObjectiveActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEvalDigestWarmBitIdentical pins the evaluation-digest tier: a second
// identical campaign in the same process serves every scenario from stored
// digests — no pair simulation — and its error tables are bit-identical to
// the cold pass.
func TestEvalDigestWarmBitIdentical(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.Cache = NewCacheScope(0)

	want := evalTestCampaign(t, ctx, false)
	st := ctx.Cache.Stats()
	if st.EvalEntries == 0 || st.EvalBytes <= 0 {
		t.Fatalf("cold campaign stored no digests: %+v", st)
	}
	coldHits := st.Hits

	got := evalTestCampaign(t, ctx, false)
	if warm := ctx.Cache.Stats(); warm.Hits <= coldHits {
		t.Fatalf("warm campaign hit nothing: cold %d hits, warm %d", coldHits, warm.Hits)
	}
	if len(got) != len(want) {
		t.Fatalf("%d models warm, %d cold", len(got), len(want))
	}
	for name, wantEvs := range want {
		gotEvs, ok := got[name]
		if !ok || len(gotEvs) != len(wantEvs) {
			t.Fatalf("model %s missing or wrong length warm", name)
		}
		for i := range wantEvs {
			compareStreamingEvaluations(t, name, wantEvs[i], gotEvs[i])
		}
	}
}

// TestEvalDigestBypassWithoutFingerprint pins the safety valve: factories
// without a fingerprint cannot be distinguished by configuration, so the
// digest tier must stay empty for them — and the results must still match
// the fingerprinted run bit for bit (the bypass changes caching, not math).
func TestEvalDigestBypassWithoutFingerprint(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.Cache = NewCacheScope(0)
	want := evalTestCampaign(t, ctx, false)

	ctx.Cache = NewCacheScope(0)
	got := evalTestCampaign(t, ctx, true)
	if st := ctx.Cache.Stats(); st.EvalEntries != 0 {
		t.Fatalf("fingerprint-less campaign stored %d digests", st.EvalEntries)
	}
	for name, wantEvs := range want {
		for i := range wantEvs {
			compareStreamingEvaluations(t, name, wantEvs[i], got[name][i])
		}
	}
}

// TestEvalKeySeparatesConfigurations pins the key itself: equal inputs
// collide, as do permutations of the scenario's apps, while changing any
// campaign constant the plan hashes into its prefix (campaign seed, stable
// window, run duration, a factory fingerprint or name, a machine spec or
// setting field) or any per-scenario field (the derived config seed, one
// process's workload or quota, one truth share or ID) must separate keys —
// and any factory without a fingerprint disables the tier.
func TestEvalKeySeparatesConfigurations(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := StressApp("matrixprod", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Apps: []AppSpec{app, other}}
	fs := []models.Factory{{Name: "m", Fingerprint: "m/v1"}}
	truths := []division.Shares{{"a": 0.5, "b": 0.5}}
	key := func(c Context, fs []models.Factory, run scenarioRun, truths []division.Shares) (evalSum, bool) {
		return newCampaignPlan(c, fs, nil).evalKey(&run, truths)
	}
	run := newCampaignPlan(ctx, fs, nil).pairRun(s)

	base, ok := key(ctx, fs, run, truths)
	if !ok || base == (evalSum{}) {
		t.Fatal("base key not built")
	}
	if again, _ := key(ctx, fs, run, truths); again != base {
		t.Fatal("equal inputs produced different keys")
	}
	// The label (and with it the derived seed) follows the app order; the
	// process list the key covers does not.
	permRun := newCampaignPlan(ctx, fs, nil).pairRun(Scenario{Apps: []AppSpec{other, app}})
	permRun.cfg.Seed = run.cfg.Seed
	if perm, _ := key(ctx, fs, permRun, truths); perm != base {
		t.Fatal("permuted app list produced a different key")
	}
	// withProc returns run with its process idx replaced by edit's copy.
	withProc := func(idx int, edit func(p *machine.Proc)) scenarioRun {
		r := run
		r.procs = append([]machine.Proc(nil), run.procs...)
		edit(&r.procs[idx])
		return r
	}
	prefix := map[string]func() (evalSum, bool){
		"seed": func() (evalSum, bool) {
			c2 := ctx
			c2.Seed++
			return key(c2, fs, run, truths)
		},
		"run-for": func() (evalSum, bool) {
			c2 := ctx
			c2.RunFor += ctx.Machine.TickInterval()
			return key(c2, fs, run, truths)
		},
		"stable-window": func() (evalSum, bool) {
			c2 := ctx
			c2.StableWindow *= 2
			return key(c2, fs, run, truths)
		},
		"fingerprint": func() (evalSum, bool) {
			return key(ctx, []models.Factory{{Name: "m", Fingerprint: "m/v2"}}, run, truths)
		},
		"factory-name": func() (evalSum, bool) {
			return key(ctx, []models.Factory{{Name: "n", Fingerprint: "m/v1"}}, run, truths)
		},
		"spec-idle": func() (evalSum, bool) {
			c2 := ctx
			c2.Machine.Spec.Power.Idle++
			return key(c2, fs, run, truths)
		},
		"turbo": func() (evalSum, bool) {
			c2 := ctx
			c2.Machine.Turbo = !c2.Machine.Turbo
			return key(c2, fs, run, truths)
		},
	}
	perScenario := map[string]func() (evalSum, bool){
		"config-seed": func() (evalSum, bool) {
			r := run
			r.cfg.Seed = deriveSeed(ctx.Seed, "pair", "other")
			return key(ctx, fs, r, truths)
		},
		"workload-cost": func() (evalSum, bool) {
			return key(ctx, fs, withProc(0, func(p *machine.Proc) {
				p.Workload.Cost = maps.Clone(p.Workload.Cost)
				for name, w := range p.Workload.Cost {
					p.Workload.Cost[name] = w + 1
				}
			}), truths)
		},
		"proc-quota": func() (evalSum, bool) {
			return key(ctx, fs, withProc(1, func(p *machine.Proc) { p.CPUQuota = 0.5 }), truths)
		},
		"truth-share": func() (evalSum, bool) {
			return key(ctx, fs, run, []division.Shares{{"a": 0.25, "b": 0.75}})
		},
		"truth-id": func() (evalSum, bool) {
			return key(ctx, fs, run, []division.Shares{{"a": 0.5, "c": 0.5}})
		},
		"truth-count": func() (evalSum, bool) {
			return key(ctx, fs, run, append(truths, truths[0]))
		},
	}
	for kind, variants := range map[string]map[string]func() (evalSum, bool){"prefix": prefix, "per-scenario": perScenario} {
		for name, build := range variants {
			k, ok := build()
			if !ok {
				t.Fatalf("%s variant %s disabled the tier", kind, name)
			}
			if k == base {
				t.Fatalf("%s variant %s collided with the base key", kind, name)
			}
		}
	}
	if _, ok := key(ctx, []models.Factory{{Name: "m"}}, run, truths); ok {
		t.Fatal("fingerprint-less factory did not disable the tier")
	}
}

// TestEvalKeyFragmentMemo pins the plan's process-fragment memo: a
// campaign plan keys a scenario exactly like a one-shot plan, and a
// process that shares a memoized ID but not its definition is hashed
// afresh instead of borrowing the memoized fragment.
func TestEvalKeyFragmentMemo(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	a, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StressApp("matrixprod", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Apps: []AppSpec{a, b}}
	fs := goldenFactories(nil, ctx.Machine.Spec)
	truths := []division.Shares{{a.ID: 0.25, b.ID: 0.75}}
	campaign := newCampaignPlan(ctx, fs, []Scenario{s})
	oneShot := newCampaignPlan(ctx, fs, nil)

	run := campaign.pairRun(s)
	want, _ := oneShot.evalKey(&run, truths)
	if got, _ := campaign.evalKey(&run, truths); got != want {
		t.Fatal("campaign plan and one-shot plan key the same scenario differently")
	}
	if len(campaign.frags) != 2 || oneShot.frags != nil {
		t.Fatalf("memo holds %d fragments (one-shot %d), want 2 (none)", len(campaign.frags), len(oneShot.frags))
	}

	edits := map[string]func(p *machine.Proc){
		"threads": func(p *machine.Proc) { p.Threads++ },
		"pinned":  func(p *machine.Proc) { p.Pinned = []int{} },
		"start":   func(p *machine.Proc) { p.Start++ },
		"mix":     func(p *machine.Proc) { p.Workload.Mix.IPC *= 2 },
		"script": func(p *machine.Proc) {
			p.Workload.Script = []workload.Phase{{Duration: 1, Threads: 1, Intensity: 1, Util: 1}}
		},
		"cost": func(p *machine.Proc) {
			p.Workload.Cost = maps.Clone(p.Workload.Cost)
			p.Workload.Cost["elsewhere"] = 1
		},
	}
	for name, edit := range edits {
		r := run
		r.procs = append([]machine.Proc(nil), run.procs...)
		edit(&r.procs[0])
		fresh, _ := oneShot.evalKey(&r, truths)
		got, _ := campaign.evalKey(&r, truths)
		if got != fresh || got == want {
			t.Fatalf("%s edit: campaign key %x, fresh %x, unedited %x", name, got[:4], fresh[:4], want[:4])
		}
	}
}

// TestEvalKeyAllocs pins the cost of a per-scenario key: the campaign
// constants are hashed once per plan and the fragments memoized, and the
// scenario's own encoding lives on the stack, so keying a scenario
// allocates nothing.
func TestEvalKeyAllocs(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	a, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StressApp("matrixprod", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Apps: []AppSpec{b, a}}
	plan := newCampaignPlan(ctx, goldenFactories(nil, ctx.Machine.Spec), []Scenario{s})
	run := plan.pairRun(s)
	truths := []division.Shares{{a.ID: 0.25, b.ID: 0.75}, {a.ID: 0.5, b.ID: 0.5}}
	if _, ok := plan.evalKey(&run, truths); !ok {
		t.Fatal("key not built")
	}
	allocs := testing.AllocsPerRun(100, func() {
		plan.evalKey(&run, truths)
	})
	if allocs != 0 {
		t.Fatalf("evalKey allocated %v times per call, want 0", allocs)
	}
}

// TestEvalKeyOneShotSharesCampaignEntry pins that the per-scenario entry
// point (a one-shot plan) and the campaign entry point (one shared plan)
// address the same evaluation-digest entry: after a campaign, evaluating
// one of its scenarios alone hits and stores nothing new.
func TestEvalKeyOneShotSharesCampaignEntry(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ctx.Cache = NewCacheScope(0)
	a, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StressApp("int64", 1)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{{Apps: []AppSpec{a, b}}, {Apps: []AppSpec{b, c}}}
	var fs []models.Factory
	var baselines map[string]division.Baseline
	byModel, err := EvaluateModelsStreaming(ctx, scenarios, func(bs map[string]division.Baseline) []models.Factory {
		baselines = bs
		fs = goldenFactories(bs, ctx.Machine.Spec)
		return fs
	}, ObjectiveActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Cache.Stats()
	if before.EvalEntries != len(scenarios) {
		t.Fatalf("campaign stored %d digests, want %d", before.EvalEntries, len(scenarios))
	}
	for i, s := range scenarios {
		row, err := EvaluateScenarioStreaming(context.Background(), ctx, s, fs, baselines, ObjectiveActive, 0)
		if err != nil {
			t.Fatal(err)
		}
		for m, f := range fs {
			compareStreamingEvaluations(t, f.Name, byModel[f.Name][i], row[m])
		}
	}
	after := ctx.Cache.Stats()
	if after.EvalEntries != before.EvalEntries || after.Hits-before.Hits != uint64(len(scenarios)) || after.Misses != before.Misses {
		t.Fatalf("one-shot evaluations missed the campaign's digests: before %+v, after %+v", before, after)
	}
}
