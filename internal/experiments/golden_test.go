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
	"powerdiv/internal/models"
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
	return out
}

func goldenSlug(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// TestGoldenCorpus recomputes every table and compares its digest with the
// frozen corpus. There is no update flag: on a mismatch the test logs the
// recomputed file, so re-baselining is a deliberate, reviewable hand edit.
func TestGoldenCorpus(t *testing.T) {
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
