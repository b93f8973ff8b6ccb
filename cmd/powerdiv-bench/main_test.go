package main

import (
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

func TestParseLine(t *testing.T) {
	res, ok := parseLine("BenchmarkCampaignParallel/workers-2-8 \t 3 \t 41000000 ns/op \t 1200 B/op \t 14 allocs/op \t 5321.5 scenarios/sec")
	if !ok {
		t.Fatal("well-formed line rejected")
	}
	if res.Name != "BenchmarkCampaignParallel/workers-2-8" || res.Iterations != 3 {
		t.Fatalf("name/iters parsed as %q/%d", res.Name, res.Iterations)
	}
	if res.NsPerOp != 41000000 || res.BytesPerOp != 1200 || res.AllocsPerOp != 14 {
		t.Fatalf("cost metrics parsed as %v/%v/%v", res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	if res.Metrics["scenarios/sec"] != 5321.5 {
		t.Fatalf("custom metric parsed as %v", res.Metrics)
	}
	if res.GOMAXPROCS != 8 {
		t.Fatalf("GOMAXPROCS suffix parsed as %d, want 8", res.GOMAXPROCS)
	}
	if res.NumCPU != runtime.NumCPU() {
		t.Fatalf("NumCPU recorded as %d, want host %d", res.NumCPU, runtime.NumCPU())
	}
	if _, ok := parseLine("ok  \tpowerdiv\t1.2s"); ok {
		t.Fatal("non-benchmark line accepted")
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":                        "BenchmarkX",
		"BenchmarkCampaignParallel/workers-2": "BenchmarkCampaignParallel/workers",
		"BenchmarkX":                          "BenchmarkX",
		"BenchmarkX-abc":                      "BenchmarkX-abc",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func scalingReport(numCPU int, w1, w2 float64) Report {
	rep := Report{NumCPU: numCPU}
	if w1 > 0 {
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:    "BenchmarkCampaignParallel/workers-1-4",
			Metrics: map[string]float64{"scenarios/sec": w1},
		})
	}
	if w2 > 0 {
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:    "BenchmarkCampaignParallel/workers-2-4",
			Metrics: map[string]float64{"scenarios/sec": w2},
		})
	}
	return rep
}

// labScaling picks the lab-campaign ladder's verdict out of the
// per-ladder results.
func labScaling(t *testing.T, rep Report, min float64) scalingResult {
	t.Helper()
	for _, res := range scalingChecks(rep, min) {
		if res.bench == "BenchmarkCampaignParallel" {
			return res
		}
	}
	t.Fatal("lab ladder missing from scaling results")
	return scalingResult{}
}

// TestScalingCheck pins the multi-core gate: a single-CPU host skips, a
// missing rung skips, a second worker that helps passes, one that doesn't
// fails.
func TestScalingCheck(t *testing.T) {
	if res := labScaling(t, scalingReport(1, 100, 200), 1.0); !res.ok || res.skip == "" {
		t.Fatal("single-CPU host did not skip")
	}
	if res := labScaling(t, scalingReport(4, 100, 0), 1.0); !res.ok || res.skip == "" {
		t.Fatal("missing workers-2 rung did not skip")
	}
	res := labScaling(t, scalingReport(4, 100, 170), 1.3)
	if res.skip != "" || !res.ok || res.speedup != 1.7 {
		t.Fatalf("healthy scaling judged %v/%v/%q", res.speedup, res.ok, res.skip)
	}
	res = labScaling(t, scalingReport(4, 100, 95), 1.0)
	if res.skip != "" || res.ok || res.speedup != 0.95 {
		t.Fatalf("flat scaling judged %v/%v/%q", res.speedup, res.ok, res.skip)
	}
}

// TestScalingCheckFleetLadder pins that the fleet campaign's worker ladder
// is gated alongside the lab one, on its own nodes/sec metric.
func TestScalingCheckFleetLadder(t *testing.T) {
	rep := Report{NumCPU: 4, Benchmarks: []Result{
		{Name: "BenchmarkFleetCampaign/workers-1-4", Metrics: map[string]float64{"nodes/sec": 100}},
		{Name: "BenchmarkFleetCampaign/workers-2-4", Metrics: map[string]float64{"nodes/sec": 80}},
	}}
	var fleet *scalingResult
	for _, res := range scalingChecks(rep, 1.0) {
		if res.bench == "BenchmarkFleetCampaign" {
			r := res
			fleet = &r
		}
	}
	if fleet == nil {
		t.Fatal("fleet ladder missing from scaling results")
	}
	if fleet.skip != "" || fleet.ok || fleet.speedup != 0.8 {
		t.Fatalf("fleet negative scaling judged %v/%v/%q", fleet.speedup, fleet.ok, fleet.skip)
	}
	if fleet.metric != "nodes/sec" {
		t.Fatalf("fleet ladder gated on %q, want nodes/sec", fleet.metric)
	}
}

func rateReport(name string, rate, allocs float64) Report {
	return Report{Benchmarks: []Result{{
		Name:        name,
		NsPerOp:     1000,
		AllocsPerOp: allocs,
		Metrics:     map[string]float64{"scenarios/sec": rate},
	}}}
}

// TestDiffReportsRateGate pins the alloc-only smoke gate's rate escape
// hatch: without a rateGate a throughput collapse passes alloc-only runs;
// with one, matching benchmarks fail past the rate threshold while
// non-matching ones stay exempt — and alloc regressions still gate as
// before.
func TestDiffReportsRateGate(t *testing.T) {
	base := rateReport("BenchmarkLabErrorTableCold/small-intel-4", 1000, 50)
	slow := rateReport("BenchmarkLabErrorTableCold/small-intel-4", 300, 50)

	regressed := func(lines []diffLine) bool {
		for _, l := range lines {
			if l.regressed {
				return true
			}
		}
		return false
	}

	allocOnly := gateConfig{thresholdPct: 300, allocOnly: true}
	if regressed(diffReports(base, slow, allocOnly)) {
		t.Fatal("alloc-only run gated a rate metric without a rateGate")
	}
	gated := allocOnly
	gated.rateGate = regexp.MustCompile("^BenchmarkLabErrorTableCold")
	gated.rateThresholdPct = 60
	if !regressed(diffReports(base, slow, gated)) {
		t.Fatal("rate-gated benchmark's 70% collapse passed")
	}
	mild := rateReport("BenchmarkLabErrorTableCold/small-intel-4", 700, 50)
	if regressed(diffReports(base, mild, gated)) {
		t.Fatal("30% dip failed a 60% rate threshold")
	}
	other := rateReport("BenchmarkCampaignParallel/workers-1-4", 1000, 50)
	otherSlow := rateReport("BenchmarkCampaignParallel/workers-1-4", 300, 50)
	if regressed(diffReports(other, otherSlow, gated)) {
		t.Fatal("non-matching benchmark was rate-gated")
	}
	allocBlowup := rateReport("BenchmarkLabErrorTableCold/small-intel-4", 1000, 50*10)
	if !regressed(diffReports(base, allocBlowup, gated)) {
		t.Fatal("alloc explosion passed the alloc gate")
	}
}

// TestDiffReportsOneSided pins the one-sided rungs: a benchmark only in the
// current run is reported as not in the baseline, one only in the baseline
// as not in the current run, and neither fails the diff.
func TestDiffReportsOneSided(t *testing.T) {
	base := rateReport("BenchmarkGone/small-intel-4", 1000, 50)
	cur := rateReport("BenchmarkNew/small-intel-4", 1000, 50)
	lines := diffReports(base, cur, gateConfig{thresholdPct: 25})
	want := []diffLine{
		{bench: "BenchmarkNew/small-intel-4", metric: notInBaseline},
		{bench: "BenchmarkGone/small-intel-4", metric: notInCurrent},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("diff lines %+v, want %+v", lines, want)
	}
	if n := printDiff("base.json", lines); n != 0 {
		t.Errorf("one-sided rungs counted %d regressions", n)
	}
}

// TestFoldRepeatsTakesMedians pins the -count folding: repeated lines of a
// benchmark become one entry, in first-seen order, whose costs and custom
// metrics are the medians over the repeats; a single-line benchmark passes
// through unchanged.
func TestFoldRepeatsTakesMedians(t *testing.T) {
	line := func(name string, ns, rate float64) Result {
		return Result{Name: name, Iterations: 1, NsPerOp: ns, BytesPerOp: ns / 10, AllocsPerOp: 3, Metrics: map[string]float64{"nodes/sec": rate}}
	}
	got := foldRepeats([]Result{
		line("BenchmarkA-2", 30, 1), line("BenchmarkA-2", 10, 9), line("BenchmarkA-2", 20, 5),
		line("BenchmarkB-2", 7, 2),
		line("BenchmarkC-2", 10, 4), line("BenchmarkC-2", 20, 8),
	})
	want := []Result{
		{Name: "BenchmarkA-2", Iterations: 3, NsPerOp: 20, BytesPerOp: 2, AllocsPerOp: 3, Metrics: map[string]float64{"nodes/sec": 5}},
		line("BenchmarkB-2", 7, 2),
		{Name: "BenchmarkC-2", Iterations: 2, NsPerOp: 15, BytesPerOp: 1.5, AllocsPerOp: 3, Metrics: map[string]float64{"nodes/sec": 6}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded %+v, want %+v", got, want)
	}
}

// TestScalingCheckDecidesOnMedian pins the repeated scaling gate: each
// repeat's workers-2 rung pairs with its own workers-1 rung, one slow
// repeat among five does not fail a ladder whose median speedup scales,
// and a ladder whose median does not scale still fails.
func TestScalingCheckDecidesOnMedian(t *testing.T) {
	ladder := func(w2 ...float64) Report {
		rep := Report{NumCPU: 2}
		for k, rate := range w2 {
			w1 := 100 * float64(k+1) // host speed differs between repeats
			rep.Benchmarks = append(rep.Benchmarks,
				Result{Name: "BenchmarkFleetCampaign/workers-1-2", Metrics: map[string]float64{"nodes/sec": w1}},
				Result{Name: "BenchmarkFleetCampaign/workers-2-2", Metrics: map[string]float64{"nodes/sec": w1 * rate / 100}})
		}
		return rep
	}
	fleet := func(rep Report) scalingResult {
		for _, res := range scalingChecks(rep, 1.0) {
			if res.bench == "BenchmarkFleetCampaign" {
				return res
			}
		}
		t.Fatal("fleet ladder missing from scaling results")
		return scalingResult{}
	}
	if res := fleet(ladder(150, 55, 140, 160, 130)); !res.ok || res.speedup != 1.4 {
		t.Errorf("one slow iteration decided the ladder: %v/%v", res.speedup, res.ok)
	}
	if res := fleet(ladder(150, 55, 70, 160, 90)); res.ok {
		t.Errorf("a ladder whose median does not scale passed: %v", res.speedup)
	}
}
