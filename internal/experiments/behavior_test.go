package experiments

import (
	"strings"
	"testing"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/models"
)

func TestBehaviorCorrelationCloverleafMirrored(t *testing.T) {
	t.Parallel()
	// §V-A / Fig 13: CLOVERLEAF's attributed curve against COMPRESS-7ZIP
	// is "entirely contextual": it tracks the co-runner's behaviour (with
	// troughs mistaken for peaks — anti-correlation) far more than its
	// own.
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	res, err := BehaviorCorrelation(cfg, models.NewScaphandre(), "compress-7zip", "cloverleaf", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Index 1 = cloverleaf.
	if !res.Mirrored(1) {
		t.Errorf("cloverleaf not mirrored: own %.3f, other %.3f", res.OwnCorr[1], res.OtherCorr[1])
	}
	if res.OtherCorr[1] > -0.8 {
		t.Errorf("cloverleaf co-runner correlation = %.3f, want strong anti-correlation", res.OtherCorr[1])
	}
	if !strings.Contains(res.Table().String(), "cloverleaf") {
		t.Error("table missing app")
	}
}

func TestBehaviorCorrelationDacapoContextual(t *testing.T) {
	t.Parallel()
	// BUILD2 vs DACAPO: both attributed curves pick up a strong
	// co-runner component (the §V-A context dependence), even where the
	// own-signal still dominates.
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	res, err := BehaviorCorrelation(cfg, models.NewScaphandre(), "build2", "dacapo", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if abs64(res.OtherCorr[i]) < 0.2 {
			t.Errorf("app %d co-runner correlation = %.3f, want a visible contextual component", i, res.OtherCorr[i])
		}
	}
	// An oracle division is still contextual: power division is the
	// problem, not the model (the paper's "we have no reason to believe
	// that this limitation is not inherent to the power division
	// approach").
	orc, err := BehaviorCorrelation(cfg, models.NewOracle(), "build2", "dacapo", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if abs64(orc.OtherCorr[1]) < 0.1 {
		t.Errorf("oracle dacapo co-runner correlation = %.3f, want non-zero (inherent to division)", orc.OtherCorr[1])
	}
}

func TestBehaviorCorrelationErrors(t *testing.T) {
	t.Parallel()
	cfg := ProdConfig(cpumodel.SmallIntel(), 1)
	if _, err := BehaviorCorrelation(cfg, models.NewScaphandre(), "nosuch", "dacapo", 6, 1); err == nil {
		t.Error("unknown app0 accepted")
	}
	if _, err := BehaviorCorrelation(cfg, models.NewScaphandre(), "build2", "nosuch", 6, 1); err == nil {
		t.Error("unknown app1 accepted")
	}
}
