package protocol

import (
	"maps"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
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
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ResetMemoization()
	defer ResetMemoization()

	want := evalTestCampaign(t, ctx, false)
	st := MemoizationStats()
	if st.EvalEntries == 0 || st.EvalBytes <= 0 {
		t.Fatalf("cold campaign stored no digests: %+v", st)
	}
	coldHits := st.Hits

	got := evalTestCampaign(t, ctx, false)
	if warm := MemoizationStats(); warm.Hits <= coldHits {
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
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	ResetMemoization()
	defer ResetMemoization()
	want := evalTestCampaign(t, ctx, false)

	ResetMemoization()
	got := evalTestCampaign(t, ctx, true)
	if st := MemoizationStats(); st.EvalEntries != 0 {
		t.Fatalf("fingerprint-less campaign stored %d digests", st.EvalEntries)
	}
	for name, wantEvs := range want {
		for i := range wantEvs {
			compareStreamingEvaluations(t, name, wantEvs[i], got[name][i])
		}
	}
}

// TestEvalKeySeparatesConfigurations pins the key itself: equal inputs
// collide, as do permutations of the process list, while changing the
// campaign seed, the derived config seed, the run duration, a workload's
// cost table, a factory fingerprint, a factory name, or a truth share must
// separate keys — and any factory without a fingerprint disables the tier.
func TestEvalKeySeparatesConfigurations(t *testing.T) {
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := StressApp("matrixprod", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctx.Machine
	procs := []machine.Proc{app.proc(), other.proc()}
	fs := []models.Factory{{Name: "m", Fingerprint: "m/v1"}}
	truths := []division.Shares{{"a": 0.5, "b": 0.5}}

	base, ok := evalKey(ctx, cfg, procs, fs, truths)
	if !ok || base == (evalSum{}) {
		t.Fatal("base key not built")
	}
	if again, _ := evalKey(ctx, cfg, procs, fs, truths); again != base {
		t.Fatal("equal inputs produced different keys")
	}
	swapped := []machine.Proc{procs[1], procs[0]}
	if perm, _ := evalKey(ctx, cfg, swapped, fs, truths); perm != base {
		t.Fatal("permuted process list produced a different key")
	}
	variants := map[string]func() (evalSum, bool){
		"seed": func() (evalSum, bool) {
			c2 := ctx
			c2.Seed++
			return evalKey(c2, cfg, procs, fs, truths)
		},
		"config-seed": func() (evalSum, bool) {
			c2 := cfg
			c2.Seed = deriveSeed(ctx.Seed, "pair", "other")
			return evalKey(ctx, c2, procs, fs, truths)
		},
		"run-for": func() (evalSum, bool) {
			c2 := ctx
			c2.RunFor += ctx.Machine.TickInterval()
			return evalKey(c2, cfg, procs, fs, truths)
		},
		"workload-cost": func() (evalSum, bool) {
			p := app.proc()
			p.Workload.Cost = maps.Clone(p.Workload.Cost)
			for name, w := range p.Workload.Cost {
				p.Workload.Cost[name] = w + 1
			}
			return evalKey(ctx, cfg, []machine.Proc{p, other.proc()}, fs, truths)
		},
		"stable-window": func() (evalSum, bool) {
			c2 := ctx
			c2.StableWindow *= 2
			return evalKey(c2, cfg, procs, fs, truths)
		},
		"fingerprint": func() (evalSum, bool) {
			return evalKey(ctx, cfg, procs, []models.Factory{{Name: "m", Fingerprint: "m/v2"}}, truths)
		},
		"factory-name": func() (evalSum, bool) {
			return evalKey(ctx, cfg, procs, []models.Factory{{Name: "n", Fingerprint: "m/v1"}}, truths)
		},
		"truth-share": func() (evalSum, bool) {
			return evalKey(ctx, cfg, procs, fs, []division.Shares{{"a": 0.25, "b": 0.75}})
		},
	}
	for name, build := range variants {
		key, ok := build()
		if !ok {
			t.Fatalf("%s variant disabled the tier", name)
		}
		if key == base {
			t.Fatalf("%s variant collided with the base key", name)
		}
	}
	if _, ok := evalKey(ctx, cfg, procs, []models.Factory{{Name: "m"}}, truths); ok {
		t.Fatal("fingerprint-less factory did not disable the tier")
	}
}

// TestEvalKeyAllocs pins the cost of a lookup key: the encoding goes
// through a pooled buffer and comes back as a fixed-size digest, so the
// only allocation left is the residual curve's Points copy.
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
	procs := []machine.Proc{b.proc(), a.proc()}
	fs := goldenFactories(nil, ctx.Machine.Spec)
	truths := []division.Shares{{a.ID: 0.25, b.ID: 0.75}, {a.ID: 0.5, b.ID: 0.5}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := evalKey(ctx, ctx.Machine, procs, fs, truths); !ok {
			t.Fatal("key not built")
		}
	})
	if allocs > 1 {
		t.Fatalf("evalKey allocated %v times per call, want <= 1", allocs)
	}
}
