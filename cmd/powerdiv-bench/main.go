// Command powerdiv-bench runs the campaign benchmarks and writes a
// machine-readable baseline file, so perf regressions show up as a diff
// instead of a feeling. It shells out to `go test -bench` (the benchmarks
// live in the root package's bench_test.go), parses the standard benchmark
// output, and emits JSON with ns/op, B/op, allocs/op and any custom metrics
// (scenarios/sec) per benchmark, plus the memoization on/off speedup when
// both sides of BenchmarkCampaignMemoization are present.
//
// Usage:
//
//	powerdiv-bench [-bench regex] [-benchtime 1x] [-count 1] [-out BENCH_campaign.json]
//	powerdiv-bench -diff BENCH_campaign.json [-threshold 25]
//
// With -count N the set runs N times, one go test invocation per repeat,
// so the workers-1 and workers-2 rungs of a ladder run back to back in
// every repeat. The scaling gate decides on the median of the per-repeat
// speedups, and each benchmark's N result lines fold into one entry of
// per-metric medians for the diff and the output file.
//
// `make bench` runs the campaign set and writes BENCH_campaign.json;
// `make bench-check` is the smoke variant (one iteration, no file);
// `make bench-diff` reruns the set and compares it against the committed
// baseline, failing when any benchmark regresses past the threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultBench selects the campaign-speed benchmarks: the §IV-A error-table
// regeneration (cold and over a warm disk tier), the worker-width sweep,
// the memoization on/off comparison, the production-shaped traffic
// campaign, the campaign service's disk-warm phase 1, a store into a 10k-record disk tier, the
// fleet-scale campaign across its worker ladder, the raw simulator
// stepping cost, and the allocation-pinning columnar-pipeline benchmarks.
const defaultBench = "BenchmarkLabErrorTable(Cold|DiskWarm)|BenchmarkCampaignParallel|BenchmarkCampaignMemoization|BenchmarkTrafficCampaign|BenchmarkTrafficPhase1|BenchmarkDiskCacheStore|BenchmarkFleetCampaign|BenchmarkSimulatorTick|BenchmarkShareOut"

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present with -benchmem (always passed).
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NumCPU is the host CPU count the entry was recorded on and
	// GOMAXPROCS the parallelism encoded in the benchmark name's -N
	// suffix — per entry, so baselines recorded on different machines
	// stay interpretable (a scenarios/sec value means nothing without
	// the CPU budget it ran under).
	NumCPU     int `json:"num_cpu,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Metrics holds custom b.ReportMetric units, e.g. "scenarios/sec".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of BENCH_campaign.json.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the parallelism the benchmarks actually ran with (it is
	// also the -N suffix on benchmark names); older baselines omit it.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Command    string `json:"command"`
	// MemoSpeedupX is BenchmarkCampaignMemoization off/on ns ratio — how
	// much the baseline tier accelerates the all-pairs lab campaign — when
	// both sub-benchmarks ran.
	MemoSpeedupX float64  `json:"memo_speedup_x,omitempty"`
	Benchmarks   []Result `json:"benchmarks"`
}

// parseLine parses one `BenchmarkX-N  iters  v unit  v unit ...` line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, NumCPU: runtime.NumCPU()}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if n, err := strconv.Atoi(res.Name[i+1:]); err == nil && n > 0 {
			res.GOMAXPROCS = n
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, true
}

// foldRepeats folds the repeated lines of a -count run into one Result per
// benchmark, in first-seen order: ns/op, B/op, allocs/op and every custom
// metric become their medians over the repeats, and Iterations the
// repeats' total. A single noisy iteration then cannot decide a gate.
func foldRepeats(results []Result) []Result {
	var order []string
	groups := map[string][]Result{}
	for _, r := range results {
		if _, ok := groups[r.Name]; !ok {
			order = append(order, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		g := groups[name]
		f := g[0]
		if len(g) > 1 {
			med := func(get func(Result) float64) float64 {
				vs := make([]float64, len(g))
				for i, r := range g {
					vs[i] = get(r)
				}
				return median(vs)
			}
			f.Iterations = 0
			for _, r := range g {
				f.Iterations += r.Iterations
			}
			f.NsPerOp = med(func(r Result) float64 { return r.NsPerOp })
			f.BytesPerOp = med(func(r Result) float64 { return r.BytesPerOp })
			f.AllocsPerOp = med(func(r Result) float64 { return r.AllocsPerOp })
			f.Metrics = make(map[string]float64, len(g[0].Metrics))
			for unit := range g[0].Metrics {
				f.Metrics[unit] = med(func(r Result) float64 { return r.Metrics[unit] })
			}
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), sorting vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// memoSpeedup derives the off/on ratio from the memoization benchmark pair.
func memoSpeedup(results []Result) float64 {
	var on, off float64
	for _, r := range results {
		name := r.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // drop the GOMAXPROCS suffix
		}
		switch name {
		case "BenchmarkCampaignMemoization/on":
			on = r.NsPerOp
		case "BenchmarkCampaignMemoization/off":
			off = r.NsPerOp
		}
	}
	if on <= 0 || off <= 0 {
		return 0
	}
	return off / on
}

// stripProcs drops the -N GOMAXPROCS suffix from a benchmark name.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// scalingLadders are the worker-width benchmark ladders the
// -require-scaling gate checks, each with the throughput metric its rungs
// report: the single-machine lab campaign and the fleet campaign (whose
// per-node tasks are batched precisely so a second worker helps rather
// than hurts).
var scalingLadders = []struct{ bench, metric string }{
	{"BenchmarkCampaignParallel", "scenarios/sec"},
	{"BenchmarkFleetCampaign", "nodes/sec"},
}

// scalingResult is one ladder's -require-scaling verdict.
type scalingResult struct {
	bench   string
	metric  string
	speedup float64
	ok      bool
	skip    string
}

// scalingChecks verifies that the campaigns actually get faster with a
// second CPU: for each ladder it compares the throughput of the workers-2
// rung against workers-1 and requires at least minSpeedup. rep holds the
// unfolded lines of every repeat, in run order; the k-th workers-2 line
// pairs with the k-th workers-1 line, so each repeat's rungs ran under the
// same host conditions, and the verdict is the median of the pairs'
// speedups. A ladder is skipped (skip non-empty) when the host has fewer
// than two CPUs — a second worker cannot run anywhere — or when either
// rung is absent from the report.
func scalingChecks(rep Report, minSpeedup float64) []scalingResult {
	out := make([]scalingResult, 0, len(scalingLadders))
	for _, l := range scalingLadders {
		res := scalingResult{bench: l.bench, metric: l.metric, ok: true}
		if rep.NumCPU < 2 {
			res.skip = fmt.Sprintf("host has %d CPU(s); parallel speedup is unmeasurable", rep.NumCPU)
			out = append(out, res)
			continue
		}
		var w1, w2 []float64
		for _, r := range rep.Benchmarks {
			switch stripProcs(r.Name) {
			case l.bench + "/workers-1":
				w1 = append(w1, r.Metrics[l.metric])
			case l.bench + "/workers-2":
				w2 = append(w2, r.Metrics[l.metric])
			}
		}
		var speedups []float64
		for k := 0; k < min(len(w1), len(w2)); k++ {
			if w1[k] > 0 && w2[k] > 0 {
				speedups = append(speedups, w2[k]/w1[k])
			}
		}
		if len(speedups) == 0 {
			res.skip = l.bench + " workers-1/workers-2 rungs not present"
			out = append(out, res)
			continue
		}
		res.speedup = median(speedups)
		res.ok = res.speedup >= minSpeedup
		out = append(out, res)
	}
	return out
}

// deltaPct is the relative change from old to new in percent; 0 when the
// old value is zero (nothing to compare against).
func deltaPct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

// diffLine is one metric comparison of a benchmark against the baseline.
type diffLine struct {
	bench, metric string
	old, cur      float64
	pct           float64
	// regressed marks a change past the threshold in the bad direction
	// (up for costs, down for throughput metrics).
	regressed bool
}

// gateConfig selects which deltas may fail a diff. allocOnly restricts the
// gate to the metrics that stay deterministic at one iteration; rateGate
// re-enables the /sec gate for benchmarks matching it (with its own, more
// generous threshold), so campaign-throughput regressions are caught even
// in alloc-only smoke runs — a whole-campaign iteration is milliseconds of
// work whose rate is stable, unlike a sub-microsecond kernel's.
type gateConfig struct {
	thresholdPct     float64
	allocOnly        bool
	rateGate         *regexp.Regexp
	rateThresholdPct float64
}

// diffReports compares the current run against a baseline, benchmark by
// benchmark. Cost metrics regress upward: ns/op, B/op, allocs/op, and any
// custom metric that is not a rate (peak-heap-bytes). Throughput metrics —
// custom metrics whose unit contains "/sec", like scenarios/sec — regress
// downward. Benchmarks present on only one side are reported but never fail
// the diff. cfg.allocOnly restricts the failure gate to the metrics that
// stay deterministic at one iteration — B/op and allocs/op, plus custom
// cost metrics like the heap watermark — while still reporting every delta
// (the smoke wiring uses it; timing and rates at -benchtime 1x swing by
// orders of magnitude on sub-microsecond benchmarks).
func diffReports(baseline, current Report, cfg gateConfig) []diffLine {
	thresholdPct, allocOnly := cfg.thresholdPct, cfg.allocOnly
	base := map[string]Result{}
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var out []diffLine
	ran := map[string]bool{}
	for _, r := range current.Benchmarks {
		ran[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			out = append(out, diffLine{bench: r.Name, metric: notInBaseline})
			continue
		}
		costs := []struct {
			metric   string
			old, cur float64
			gated    bool
		}{
			{"ns/op", b.NsPerOp, r.NsPerOp, !allocOnly},
			{"B/op", b.BytesPerOp, r.BytesPerOp, true},
			{"allocs/op", b.AllocsPerOp, r.AllocsPerOp, true},
		}
		for _, c := range costs {
			pct := deltaPct(c.old, c.cur)
			out = append(out, diffLine{
				bench: r.Name, metric: c.metric, old: c.old, cur: c.cur,
				pct: pct, regressed: c.gated && pct > thresholdPct,
			})
		}
		for unit, old := range b.Metrics {
			cur, ok := r.Metrics[unit]
			if !ok {
				continue
			}
			pct := deltaPct(old, cur)
			regressed := false
			if strings.Contains(unit, "/sec") {
				// A rate: lower is worse, and like ns/op it is only
				// meaningful with real iteration counts — except for the
				// benchmarks the rate gate singles out, whose per-iteration
				// rates are stable enough to police.
				gated, th := !allocOnly, thresholdPct
				if cfg.rateGate != nil && cfg.rateGate.MatchString(r.Name) {
					gated, th = true, cfg.rateThresholdPct
				}
				regressed = gated && pct < -th
			} else {
				// A cost (e.g. peak-heap-bytes): higher is worse, and like
				// B/op it stays comparable even in one-iteration smoke runs.
				regressed = pct > thresholdPct
			}
			out = append(out, diffLine{
				bench: r.Name, metric: unit, old: old, cur: cur,
				pct: pct, regressed: regressed,
			})
		}
	}
	for _, b := range baseline.Benchmarks {
		if !ran[b.Name] {
			out = append(out, diffLine{bench: b.Name, metric: notInCurrent})
		}
	}
	return out
}

// The metric placeholders of benchmarks present on only one side.
const (
	notInBaseline = "(not in baseline)"
	notInCurrent  = "(not in current run)"
)

// printDiff renders the comparison and returns how many lines regressed.
func printDiff(baseline string, lines []diffLine) int {
	fmt.Printf("\ncomparison against %s:\n", baseline)
	regressions := 0
	for _, l := range lines {
		if l.metric == notInBaseline || l.metric == notInCurrent {
			fmt.Printf("  %-60s %s\n", l.bench, l.metric)
			continue
		}
		mark := ""
		if l.regressed {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Printf("  %-60s %-14s %14.4g -> %14.4g  %+7.1f%%%s\n",
			l.bench, l.metric, l.old, l.cur, l.pct, mark)
	}
	return regressions
}

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (e.g. 1x, 2s); empty = go default")
	count := flag.Int("count", 1, "runs of the benchmark set; repeats fold into per-benchmark medians")
	out := flag.String("out", "BENCH_campaign.json", `output file; "-" prints JSON to stdout, "" skips the file (smoke mode)`)
	diff := flag.String("diff", "", "baseline JSON to compare against; exits non-zero on regressions past -threshold")
	threshold := flag.Float64("threshold", 25, "regression threshold in percent for -diff")
	allocOnly := flag.Bool("alloc-only", false, "gate -diff on B/op and allocs/op only (timing still reported); for one-iteration smoke runs")
	rateGate := flag.String("rate-gate", "", "regex of benchmarks whose /sec metrics are gated in -diff even with -alloc-only")
	rateThreshold := flag.Float64("rate-threshold", 60, "regression threshold in percent for -rate-gate rates")
	requireScaling := flag.Float64("require-scaling", 0, "minimum workers-2/workers-1 scenarios/sec speedup to assert (0 disables; skipped on <2 CPU hosts)")
	flag.Parse()

	var rateGateRe *regexp.Regexp
	if *rateGate != "" {
		re, err := regexp.Compile(*rateGate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: -rate-gate: %v\n", err)
			os.Exit(1)
		}
		rateGateRe = re
	}

	var baseline Report
	if *diff != "" {
		buf, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(buf, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "error: parsing %s: %v\n", *diff, err)
			os.Exit(1)
		}
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-count", "1"}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, ".")
	var results []Result
	for i := 0; i < *count; i++ {
		rs, err := runBenchmarks(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		results = append(results, rs...)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "error: no benchmark lines matched", *bench)
		os.Exit(1)
	}

	// The scaling gate pairs the repeats' rungs; the rest see medians.
	raw := Report{NumCPU: runtime.NumCPU(), Benchmarks: results}
	results = foldRepeats(results)
	rep := Report{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Command:      fmt.Sprintf("go %s (runs: %d)", strings.Join(args, " "), *count),
		MemoSpeedupX: memoSpeedup(results),
		Benchmarks:   results,
	}
	if rep.MemoSpeedupX > 0 {
		fmt.Printf("\nmemoization speedup on the lab campaign: %.2fx\n", rep.MemoSpeedupX)
	}
	if *requireScaling > 0 {
		failed := 0
		for _, res := range scalingChecks(raw, *requireScaling) {
			switch {
			case res.skip != "":
				fmt.Printf("parallel scaling check skipped (%s): %s\n", res.bench, res.skip)
			case !res.ok:
				fmt.Fprintf(os.Stderr, "error: %s workers-2 ran %.2fx the %s of workers-1 (need >= %.2fx)\n", res.bench, res.speedup, res.metric, *requireScaling)
				failed++
			default:
				fmt.Printf("parallel scaling (%s): workers-2 is %.2fx workers-1 (>= %.2fx required)\n", res.bench, res.speedup, *requireScaling)
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
	if *diff != "" {
		cfg := gateConfig{
			thresholdPct:     *threshold,
			allocOnly:        *allocOnly,
			rateGate:         rateGateRe,
			rateThresholdPct: *rateThreshold,
		}
		if n := printDiff(*diff, diffReports(baseline, rep, cfg)); n > 0 {
			fmt.Fprintf(os.Stderr, "error: %d metric(s) regressed more than %.0f%%\n", n, *threshold)
			os.Exit(1)
		}
		fmt.Printf("no regressions past %.0f%%\n", *threshold)
	}
	switch *out {
	case "":
		return
	case "-":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}

// runBenchmarks runs one go test invocation, streaming its output through,
// and returns the benchmark lines it printed.
func runBenchmarks(args []string) ([]Result, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var results []Result
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // stream the raw go test output through
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("benchmarks failed: %w", err)
	}
	return results, nil
}
