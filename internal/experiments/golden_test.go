package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/fleet"
	"powerdiv/internal/models"
	"powerdiv/internal/trace"
	"powerdiv/internal/traffic"
	"powerdiv/internal/workload"
)

// goldenPath is the frozen corpus: one "name digest" line per table,
// sorted by name.
var goldenPath = filepath.Join("testdata", "golden.txt")

// goldenDigest is FNV-64a over the table's %+v rendering. %+v prints every
// float in its shortest round-trip form and sorts map keys, so the digest
// pins every result bit; none of the digested types holds a pointer, so
// the rendering carries no addresses.
func goldenDigest(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenTables computes every table of the corpus at seed 1, with the
// arguments the report command and the benchmarks pass.
func goldenTables(t *testing.T) map[string]any {
	t.Helper()
	const seed = 1
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	small, dahu := cpumodel.SmallIntel(), cpumodel.Dahu()
	out := map[string]any{}

	for _, spec := range []cpumodel.Spec{small, dahu} {
		lab, err := LabEvaluationStreaming(LabContext(spec, seed), models.NewKepler(), models.NewOracle())
		check(err)
		out["lab-"+goldenSlug(spec.Name)] = lab
		prod, err := RatioScatter(ProdContext(spec, seed), models.NewScaphandre())
		check(err)
		out["scatter-prod-scaphandre-"+goldenSlug(spec.Name)] = prod
	}

	fig9 := []models.Factory{
		models.NewPowerAPI(models.DefaultPowerAPIConfig()),
		models.NewScaphandre(),
		models.NewResidualAwareFromSpec(small),
	}
	for _, f := range fig9 {
		res, err := ResidualCapping(LabContext(small, seed), f, workload.StressNames(), []int{1, 2, 3})
		check(err)
		out["residual-"+f.Name] = res
	}

	prof, err := ProfileF2Evaluation(LabContext(small, seed))
	check(err)
	out["profile-f2"] = prof
	multi, err := MultiAppEvaluation(LabContext(small, seed), models.NewScaphandre(), workload.StressNames(), []int{2, 3}, 2)
	check(err)
	out["multiapp"] = multi

	fams, err := FamilyAblation(small, "fibonacci", "matrixprod", 3, seed)
	check(err)
	out["ablation-families"] = fams
	with, without, err := StableWindowAblation(small, seed)
	check(err)
	out["ablation-stable-window"] = [2]float64{with, without}
	learn, err := LearningWindowAblation(small, []time.Duration{2 * time.Second, 10 * time.Second, 20 * time.Second}, seed)
	check(err)
	out["ablation-learning-window"] = learn
	period, err := SamplePeriodAblation(small, []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond, time.Second}, seed)
	check(err)
	out["ablation-sample-period"] = period
	ht, err := HTEfficiencyAblation(small, []float64{0.2, 0.3, 0.45, 0.6}, seed)
	check(err)
	out["ablation-ht-efficiency"] = ht
	pWith, pWithout, err := PowerAPIDeterminismAblation(LabContext(dahu, seed))
	check(err)
	out["ablation-powerapi-determinism"] = [2]float64{pWith, pWithout}

	ctx := LabContext(small, seed)
	tr, err := TrafficCampaign(ctx, TrafficConfig(ctx, traffic.Poisson, 24, 15*time.Second))
	check(err)
	out["traffic-poisson"] = tr
	// serve-traffic's job shape: bursty and diurnal churn besides Poisson.
	mixed, err := TrafficCampaign(ctx, TrafficConfig(ctx, traffic.Mixed, 48, 10*time.Second))
	check(err)
	out["traffic-mixed"] = mixed

	// Fig 8, Fig 11 and §V: the per-tick and replayed-run consumers, with
	// the report command's arguments.
	for spec, threads := range map[*cpumodel.Spec]int{&small: 3, &dahu: 8} {
		inst, err := Instability(LabConfig(*spec, seed), "matrixprod", "float64", threads, 6, seed+6)
		check(err)
		out["fig8-"+goldenSlug(spec.Name)] = inst
	}
	for _, f := range PaperModels() {
		res, err := ContextIllustration(LabConfig(small, seed), f, "int64", 2, 20*time.Second, seed)
		check(err)
		out["context-"+f.Name] = goldenContext(res)
		div, err := EnergyDivision(ProdConfig(small, seed), f, "build2", "dacapo", 6, seed)
		check(err)
		out["energy-division-"+f.Name] = goldenEnergy(div)
	}
	sweep, err := ColocationSweep(ProdConfig(dahu, seed), models.NewScaphandre(), "cloverleaf", 6, []int{0, 4, 9}, seed)
	check(err)
	out["colocation-sweep"] = sweep

	// A few-node fleet, shaped like the fleet package's fast test config:
	// heterogeneous node specs, per-node traffic shards and noise grades.
	fl, err := fleet.Campaign(fleet.Config{
		Nodes:            4,
		Seed:             seed,
		ScenariosPerNode: 1,
		Window:           2 * time.Second,
		RunFor:           3 * time.Second,
		StableWindow:     time.Second,
		Kernels:          []string{"fibonacci", "matrixprod", "queens"},
	}, nil)
	check(err)
	out["fleet-4-nodes"] = fl
	return out
}

// goldenContext and goldenEnergy replace the results' *trace.Series
// fields with their samples, so the digest covers values, not addresses.
func goldenContext(r ContextResult) any {
	est := map[string][]trace.Sample{}
	for id, s := range r.Estimates {
		est[id] = s.Samples()
	}
	return struct {
		Machine, Model string
		Estimates      map[string][]trace.Sample
		MachinePower   []trace.Sample
		Windows        []time.Duration
	}{r.Machine, r.Model, est, r.MachinePower.Samples(), r.Windows}
}

func goldenEnergy(r EnergyDivisionResult) any {
	flat := r
	flat.Est0, flat.Est1, flat.PairMachine = nil, nil, nil
	return struct {
		Result                  EnergyDivisionResult
		Est0, Est1, PairMachine []trace.Sample
	}{flat, r.Est0.Samples(), r.Est1.Samples(), r.PairMachine.Samples()}
}

func goldenSlug(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// TestGoldenCorpus recomputes every table and compares its digest with the
// frozen corpus. There is no update flag: on a mismatch the test logs the
// recomputed file, so re-baselining is a deliberate, reviewable hand edit.
func TestGoldenCorpus(t *testing.T) {
	t.Parallel()
	tables := goldenTables(t)
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, goldenDigest(tables[name]))
	}
	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus: %v\nrecomputed:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("golden corpus mismatch\nwant:\n%s\ngot:\n%s", want, got)
	}
}
