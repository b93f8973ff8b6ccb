package experiments

import (
	"strings"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/models"
)

func TestMultiAppEvaluation(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	fns := []string{"fibonacci", "queens", "int64", "float64", "jmp", "matrixprod"}
	res, err := MultiAppEvaluation(ctx, models.NewScaphandre(), fns, []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// C(6,2)=15 pairs, C(6,3)=20 triples.
	if res.Scenarios[2] != 15 || res.Scenarios[3] != 20 {
		t.Errorf("scenario counts = %v, want 15/20", res.Scenarios)
	}
	// Errors stay in the same regime across scenario sizes (the CPU-time
	// blindness is per-application, not per-pair).
	for _, k := range []int{2, 3} {
		if res.MeanAE[k] < 0.005 || res.MeanAE[k] > 0.10 {
			t.Errorf("mean AE at size %d = %.4f, out of regime", k, res.MeanAE[k])
		}
		if res.MaxAE[k] < res.MeanAE[k] {
			t.Errorf("max below mean at size %d", k)
		}
	}
	if !strings.Contains(res.Table().String(), "n-application") {
		t.Error("table title missing")
	}
}

func TestMultiAppEvaluationErrors(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	if _, err := MultiAppEvaluation(ctx, models.NewScaphandre(), []string{"int64"}, []int{2}, 1); err == nil {
		t.Error("2-way combos of 1 function accepted")
	}
	// Oversubscription: 3 apps × 3 threads on 6 cores.
	if _, err := MultiAppEvaluation(ctx, models.NewScaphandre(), []string{"int64", "rand", "jmp"}, []int{3}, 3); err == nil {
		t.Error("oversubscribed combos accepted")
	}
}
