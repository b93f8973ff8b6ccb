package experiments

import (
	"strings"
	"testing"

	"powerdiv/internal/cpumodel"
)

func TestCollectProfileTraining(t *testing.T) {
	t.Parallel()
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	samples, err := CollectProfileTraining(ctx, []string{"fibonacci", "matrixprod", "jmp"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3", len(samples))
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Workload] = float64(s.ActivePerCore)
		// Rates must reflect per-core-second normalisation: cycles at the
		// base frequency (3.6 GHz in the lab context).
		if s.Rates.Cycles < 3.5e9 || s.Rates.Cycles > 3.7e9 {
			t.Errorf("%s cycle rate = %.3g, want ≈3.6e9", s.Workload, s.Rates.Cycles)
		}
	}
	// Isolated per-core power matches the calibration.
	if got := byName["fibonacci"]; got < 4.2 || got > 4.6 {
		t.Errorf("fibonacci per-core = %.2f, want ≈4.4", got)
	}
	if got := byName["matrixprod"]; got < 6.9 || got > 7.3 {
		t.Errorf("matrixprod per-core = %.2f, want ≈7.1", got)
	}
	if _, err := CollectProfileTraining(ctx, []string{"nosuch"}, 2); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestProfileF2EvaluationBeatsScaphandre(t *testing.T) {
	t.Parallel()
	// The §VI result: the profile-driven F2 model outperforms CPU-time
	// division on the full campaign (measured: ≈2.5 % vs ≈3.7 % mean,
	// ≈7.5 % vs ≈11.8 % max on SMALL INTEL).
	ctx := LabContext(cpumodel.SmallIntel(), 1)
	res, err := ProfileF2Evaluation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfileF2.MeanAE >= res.Scaphandre.MeanAE {
		t.Errorf("profile-F2 mean %.4f not below scaphandre %.4f", res.ProfileF2.MeanAE, res.Scaphandre.MeanAE)
	}
	if res.ProfileF2.MaxAE >= res.Scaphandre.MaxAE {
		t.Errorf("profile-F2 max %.4f not below scaphandre %.4f", res.ProfileF2.MaxAE, res.Scaphandre.MaxAE)
	}
	// The estimator is imperfect (instruction mix explains only part of
	// the power variance), so the improvement is real but bounded.
	if res.TrainError < 0.01 || res.TrainError > 0.25 {
		t.Errorf("train error = %.4f, want 0.01–0.25", res.TrainError)
	}
	if res.MeanLOO() < res.TrainError {
		t.Errorf("LOO %.4f below train error %.4f", res.MeanLOO(), res.TrainError)
	}
	if len(res.LeaveOneOut) != 12 {
		t.Errorf("%d LOO entries, want 12", len(res.LeaveOneOut))
	}
	if !strings.Contains(res.Table().String(), "profile-F2") {
		t.Error("table missing profile-F2 rows")
	}
	if !strings.Contains(res.LOOTable().String(), "fibonacci") {
		t.Error("LOO table missing workloads")
	}
}
