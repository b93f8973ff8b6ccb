package workload

import (
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/units"
)

func TestMachineNamesMatchSpecs(t *testing.T) {
	if MachineSmallIntel != cpumodel.SmallIntel().Name {
		t.Errorf("MachineSmallIntel = %q, spec name = %q", MachineSmallIntel, cpumodel.SmallIntel().Name)
	}
	if MachineDahu != cpumodel.Dahu().Name {
		t.Errorf("MachineDahu = %q, spec name = %q", MachineDahu, cpumodel.Dahu().Name)
	}
}

func TestStressSetMatchesTable3(t *testing.T) {
	set := StressSet()
	if len(set) != 12 {
		t.Fatalf("stress set has %d entries, want 12 (Table III)", len(set))
	}
	want := map[string]bool{
		"ackermann": true, "queens": true, "fibonacci": true,
		"float64": true, "int64": true, "decimal64": true, "double": true,
		"int64float": true, "int64double": true,
		"matrixprod": true, "rand": true, "jmp": true,
	}
	for _, w := range set {
		if !want[w.Name] {
			t.Errorf("unexpected stress workload %q", w.Name)
		}
		delete(want, w.Name)
		if w.Kind != Stress {
			t.Errorf("%s kind = %v, want Stress", w.Name, w.Kind)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
	}
	for name := range want {
		t.Errorf("missing stress workload %q", name)
	}
}

func TestStressCostSpreadSmallIntel(t *testing.T) {
	// §IV-A: FIBONACCI least consuming; MATRIXPROD, INT64FLOAT, JMP at the
	// top; worst same-thread pair error ≈11.7 %.
	fib, _ := StressByName("fibonacci")
	mat, _ := StressByName("matrixprod")
	cf := float64(fib.CostOn(MachineSmallIntel))
	cm := float64(mat.CostOn(MachineSmallIntel))
	for _, w := range StressSet() {
		c := float64(w.CostOn(MachineSmallIntel))
		if c < cf {
			t.Errorf("%s cost %.2f below fibonacci %.2f on SMALL INTEL", w.Name, c, cf)
		}
		if c > cm {
			t.Errorf("%s cost %.2f above matrixprod %.2f on SMALL INTEL", w.Name, c, cm)
		}
	}
	worst := math.Abs(0.5 - cf/(cf+cm))
	if worst < 0.10 || worst > 0.14 {
		t.Errorf("worst pair error = %.3f, want ≈0.117", worst)
	}
}

func TestStressCostSpreadDahu(t *testing.T) {
	// §IV-A: on DAHU the worst pair is QUEENS vs FLOAT64 at ≈17.4 %.
	q, _ := StressByName("queens")
	f, _ := StressByName("float64")
	cq := float64(q.CostOn(MachineDahu))
	cfl := float64(f.CostOn(MachineDahu))
	for _, w := range StressSet() {
		c := float64(w.CostOn(MachineDahu))
		if c < cq || c > cfl {
			t.Errorf("%s cost %.2f outside [queens, float64] band on DAHU", w.Name, c)
		}
	}
	worst := math.Abs(0.5 - cq/(cq+cfl))
	if worst < 0.16 || worst > 0.19 {
		t.Errorf("worst pair error = %.3f, want ≈0.174", worst)
	}
}

func TestMeanPairwiseErrorBallpark(t *testing.T) {
	// The average ratio error of a CPU-time model over all distinct
	// same-thread pairs should land near the paper's ≈3 % on SMALL INTEL.
	set := StressSet()
	var sum float64
	var n int
	for i := range set {
		for j := i + 1; j < len(set); j++ {
			ci := float64(set[i].CostOn(MachineSmallIntel))
			cj := float64(set[j].CostOn(MachineSmallIntel))
			sum += math.Abs(0.5 - ci/(ci+cj))
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 0.02 || mean > 0.05 {
		t.Errorf("mean pairwise error on SMALL INTEL = %.4f, want ≈0.03", mean)
	}
}

func TestCostOnFallback(t *testing.T) {
	w := Workload{Name: "x", Cost: map[string]units.Watts{"A": 4, "B": 6}}
	if got := w.CostOn("UNKNOWN"); got != 5 {
		t.Errorf("fallback cost = %v, want mean 5", got)
	}
	empty := Workload{Name: "y"}
	if got := empty.CostOn("UNKNOWN"); got <= 0 {
		t.Errorf("empty-cost fallback = %v, want positive", got)
	}
}

func TestPhoronixSetMatchesTable4(t *testing.T) {
	set := PhoronixSet()
	if len(set) != 4 {
		t.Fatalf("phoronix set has %d entries, want 4 (Table IV)", len(set))
	}
	wantDur := map[string]time.Duration{
		"cloverleaf":    516 * time.Second,
		"dacapo":        364 * time.Second,
		"build2":        384 * time.Second,
		"compress-7zip": 396 * time.Second,
	}
	for _, w := range set {
		want, ok := wantDur[w.Name]
		if !ok {
			t.Errorf("unexpected app %q", w.Name)
			continue
		}
		if w.Kind != App {
			t.Errorf("%s kind = %v, want App", w.Name, w.Kind)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
		if got := w.Duration(); got != want {
			t.Errorf("%s scripted duration = %v, want %v (Table V)", w.Name, got, want)
		}
	}
}

func TestPhaseAtStress(t *testing.T) {
	w, _ := StressByName("fibonacci")
	p, done := w.PhaseAt(5*time.Minute, 3)
	if done {
		t.Error("stress workload reported done")
	}
	if p.Threads != 3 || p.Intensity != 1 || p.Util != 1 {
		t.Errorf("stress phase = %+v, want full load with 3 threads", p)
	}
}

func TestPhaseAtScript(t *testing.T) {
	w := Workload{
		Name: "scripted",
		Mix:  CounterMix{IPC: 1},
		Script: []Phase{
			{Duration: 10 * time.Second, Threads: 2, Intensity: 1, Util: 1},
			{Duration: 5 * time.Second, Threads: 1, Intensity: 0.5, Util: 0.5},
		},
	}
	p, done := w.PhaseAt(0, 9)
	if done || p.Threads != 2 {
		t.Errorf("t=0: phase %+v done=%v, want first phase", p, done)
	}
	p, done = w.PhaseAt(12*time.Second, 9)
	if done || p.Threads != 1 {
		t.Errorf("t=12s: phase %+v done=%v, want second phase", p, done)
	}
	_, done = w.PhaseAt(15*time.Second, 9)
	if !done {
		t.Error("t=15s: want done")
	}
}

func TestRepeat(t *testing.T) {
	p := Phase{Duration: time.Second, Threads: 1, Intensity: 1, Util: 1}
	q := Phase{Duration: 2 * time.Second, Threads: 2, Intensity: 1, Util: 1}
	r := Repeat(3, p, q)
	if len(r) != 6 {
		t.Fatalf("Repeat len = %d, want 6", len(r))
	}
	if ScriptDuration(r) != 9*time.Second {
		t.Errorf("ScriptDuration = %v, want 9s", ScriptDuration(r))
	}
}

func TestValidateCatchesBadWorkloads(t *testing.T) {
	bad := []Workload{
		{Name: "", Mix: CounterMix{IPC: 1}},
		{Name: "x", Mix: CounterMix{IPC: 0}},
		{Name: "x", Mix: CounterMix{IPC: 1}, Cost: map[string]units.Watts{"A": -1}},
		{Name: "x", Mix: CounterMix{IPC: 1}, Script: []Phase{{Duration: 0, Threads: 1, Intensity: 1, Util: 1}}},
		{Name: "x", Mix: CounterMix{IPC: 1}, Script: []Phase{{Duration: time.Second, Threads: 1, Intensity: 1, Util: 2}}},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d validated", i)
		}
	}
}

func TestByNameLookups(t *testing.T) {
	if _, ok := StressByName("matrixprod"); !ok {
		t.Error("matrixprod not found")
	}
	if _, ok := StressByName("nope"); ok {
		t.Error("nope found in stress set")
	}
	if _, ok := PhoronixByName("build2"); !ok {
		t.Error("build2 not found")
	}
	if _, ok := PhoronixByName("nope"); ok {
		t.Error("nope found in phoronix set")
	}
	if got := len(StressNames()); got != 12 {
		t.Errorf("StressNames len = %d, want 12", got)
	}
	if got := len(PhoronixSet()); got != 4 {
		t.Errorf("PhoronixSet len = %d, want 4", got)
	}
}

// TestKnownMatchesLookups pins Known and the Phoronix lookup against the
// materialised set: every application of PhoronixSet resolves by its
// name, and Known accepts exactly the names the two lookups resolve.
func TestKnownMatchesLookups(t *testing.T) {
	names := append([]string{}, StressNames()...)
	for _, app := range PhoronixSet() {
		if w, ok := PhoronixByName(app.Name); !ok || w.Name != app.Name {
			t.Errorf("phoronix name %q resolves to %q (found %v)", app.Name, w.Name, ok)
		}
		names = append(names, app.Name)
	}
	for _, name := range append(names, "nope", "", "Matrixprod") {
		_, stress := StressByName(name)
		_, phoronix := PhoronixByName(name)
		if got := Known(name); got != (stress || phoronix) {
			t.Errorf("Known(%q) = %v, lookups found stress %v, phoronix %v", name, got, stress, phoronix)
		}
	}
}

func TestKindString(t *testing.T) {
	if Stress.String() != "stress" || App.String() != "app" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}
