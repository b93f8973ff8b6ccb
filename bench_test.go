// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment driver and
// logs the regenerated rows/series (visible with -v); set
// POWERDIV_WRITE_RESULTS=1 to also write CSVs under out/.
//
// The experiments are deterministic, so repeated iterations measure the
// harness cost of regenerating each artefact; the numbers themselves are
// identical across iterations.
package powerdiv_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/energyacct"
	"powerdiv/internal/experiments"
	"powerdiv/internal/fleet"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
	"powerdiv/internal/report"
	"powerdiv/internal/stressng"
	"powerdiv/internal/traffic"
	"powerdiv/internal/units"
	"powerdiv/internal/vm"
	"powerdiv/internal/workload"
)

const benchSeed = 1

func writeResult(b *testing.B, t *report.Table, name string) {
	b.Helper()
	b.Log("\n" + t.String())
	if os.Getenv("POWERDIV_WRITE_RESULTS") == "" {
		return
	}
	if err := t.WriteCSV(filepath.Join("out", name+".csv")); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable3StressKernels measures the real compute kernels named
// after the Table III stress-ng functions.
func BenchmarkTable3StressKernels(b *testing.B) {
	for _, k := range stressng.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += k.Batch()
			}
			_ = sum
		})
	}
}

// BenchmarkTable4PhoronixApps simulates each Table IV application solo in
// a 6-vCPU VM — the execution behind Table V's rows.
func BenchmarkTable4PhoronixApps(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	for _, app := range workload.PhoronixSet() {
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := vm.SimulateColocation(cfg, []vm.VM{{Name: app.Name, VCPUs: 6, App: app}}, app.Duration()+time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: %s over %s", app.Name, run.Energy(), run.Duration)
				}
			}
		})
	}
}

// BenchmarkTable5ReferenceValues regenerates Table V (three repetitions
// per application, with variability).
func BenchmarkTable5ReferenceValues(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	var refs []experiments.AppReference
	for i := 0; i < b.N; i++ {
		var err error
		refs, err = experiments.PhoronixReference(cfg, 6, 3, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, experiments.TableV(refs), "table5")
}

func benchCurve(b *testing.B, spec cpumodel.Spec, prod bool, name string) {
	cfg := experiments.LabConfig(spec, benchSeed)
	if prod {
		cfg = experiments.ProdConfig(spec, benchSeed)
	}
	var res experiments.CurveResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.PowerCurve(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), name)
	b.Logf("gap %s, band at full load %s", res.ResidualGap(), res.BandWidthAtFull())
}

// BenchmarkFig1CurveNoHT regenerates Fig 1 (HT/turbo off) on both machines.
func BenchmarkFig1CurveNoHT(b *testing.B) {
	b.Run("small-intel", func(b *testing.B) { benchCurve(b, cpumodel.SmallIntel(), false, "fig1-small-intel") })
	b.Run("dahu", func(b *testing.B) { benchCurve(b, cpumodel.Dahu(), false, "fig1-dahu") })
}

// BenchmarkFig2Eq1Undershoot regenerates the Fig 2 illustration: Equation 1
// estimates under-cover the machine power by exactly R.
func BenchmarkFig2Eq1Undershoot(b *testing.B) {
	cfg := experiments.LabConfig(cpumodel.SmallIntel(), benchSeed)
	var res experiments.Eq1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Eq1Undershoot(cfg, "fibonacci", "matrixprod", 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	t := report.NewTable("Fig 2 — Eq 1 under-coverage", "quantity", "watts")
	t.AddRowf("C pair", float64(res.CPair))
	t.AddRowf("naive Ce(P0)", float64(res.Naive0))
	t.AddRowf("naive Ce(P1)", float64(res.Naive1))
	t.AddRowf("uncovered (= R)", float64(res.Uncovered))
	writeResult(b, t, "fig2")
}

// BenchmarkFig3CurveHT regenerates Fig 3 (HT/turbo on) on both machines.
func BenchmarkFig3CurveHT(b *testing.B) {
	b.Run("small-intel", func(b *testing.B) { benchCurve(b, cpumodel.SmallIntel(), true, "fig3-small-intel") })
	b.Run("dahu", func(b *testing.B) { benchCurve(b, cpumodel.Dahu(), true, "fig3-dahu") })
}

func benchScatter(b *testing.B, spec cpumodel.Spec, factory models.Factory, name string) {
	ctx := experiments.LabContext(spec, benchSeed)
	var res experiments.ScatterResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RatioScatter(ctx, factory)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), name)
	if os.Getenv("POWERDIV_WRITE_RESULTS") != "" {
		if err := res.PointsTable().WriteCSV(filepath.Join("out", name+"-points.csv")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ScaphandreSmall regenerates Fig 4: Scaphandre ratio scatter
// on SMALL INTEL (paper: mean 3.15 %, max 11.7 %).
func BenchmarkFig4ScaphandreSmall(b *testing.B) {
	benchScatter(b, cpumodel.SmallIntel(), models.NewScaphandre(), "fig4-scaphandre-small")
}

// BenchmarkFig5PowerAPISmall regenerates Fig 5: PowerAPI on SMALL INTEL
// (paper: mean 3.12 %).
func BenchmarkFig5PowerAPISmall(b *testing.B) {
	benchScatter(b, cpumodel.SmallIntel(), models.NewPowerAPI(models.DefaultPowerAPIConfig()), "fig5-powerapi-small")
}

// BenchmarkFig6ScaphandreDahu regenerates Fig 6: Scaphandre on DAHU
// (paper: mean 2.7 %, max 17.4 % between QUEENS and FLOAT64).
func BenchmarkFig6ScaphandreDahu(b *testing.B) {
	benchScatter(b, cpumodel.Dahu(), models.NewScaphandre(), "fig6-scaphandre-dahu")
}

// BenchmarkFig7PowerAPIDahu regenerates Fig 7: PowerAPI on DAHU
// (paper: mean 16.23 %, max 49.1 %).
func BenchmarkFig7PowerAPIDahu(b *testing.B) {
	benchScatter(b, cpumodel.Dahu(), models.NewPowerAPI(models.DefaultPowerAPIConfig()), "fig7-powerapi-dahu")
}

// BenchmarkFig8PowerAPIInstability regenerates Fig 8: identical
// MATRIXPROD/FLOAT64 runs on DAHU with flip-flopping 90/10 attributions.
func BenchmarkFig8PowerAPIInstability(b *testing.B) {
	cfg := experiments.LabConfig(cpumodel.Dahu(), benchSeed)
	var res experiments.InstabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Instability(cfg, "matrixprod", "float64", 8, 6, benchSeed+6)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), "fig8")
	b.Logf("flip-flopped: %v", res.FlipFlopped())
}

// BenchmarkFig9Residual regenerates Fig 9 / §IV-B: the capped-vs-uncapped
// campaign against both residual-aware objectives, per model.
func BenchmarkFig9Residual(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	for _, f := range experiments.PaperModels() {
		b.Run(f.Name, func(b *testing.B) {
			var res experiments.CappingResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.ResidualCapping(ctx, f, workload.StressNames(), []int{1, 2, 3})
				if err != nil {
					b.Fatal(err)
				}
			}
			writeResult(b, res.Table(), "fig9-"+f.Name)
		})
	}
}

// BenchmarkFig10PhoronixTraces regenerates the Fig 10 solo power traces.
func BenchmarkFig10PhoronixTraces(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	var refs []experiments.AppReference
	for i := 0; i < b.N; i++ {
		var err error
		refs, err = experiments.PhoronixReference(cfg, 6, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range refs {
		b.Logf("%s: %d samples, mean %.1f W, min %.1f, max %.1f",
			r.Name, r.Trace.Len(), r.Trace.Mean(), r.Trace.Min(), r.Trace.Max())
		if os.Getenv("POWERDIV_WRITE_RESULTS") != "" {
			t := report.NewTable("Fig 10 — "+r.Name, "t (s)", "watts")
			for _, s := range r.Trace.Samples() {
				t.AddRowf(s.At.Seconds(), s.Value)
			}
			if err := t.WriteCSV(filepath.Join("out", "fig10-"+r.Name+".csv")); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig11ContextDependence regenerates the Fig 11 illustration:
// three staggered identical applications, context-dependent attribution.
func BenchmarkFig11ContextDependence(b *testing.B) {
	cfg := experiments.LabConfig(cpumodel.SmallIntel(), benchSeed)
	var res experiments.ContextResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ContextIllustration(cfg, models.NewScaphandre(), "int64", 2, 20*time.Second, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), "fig11")
}

func benchEnergy(b *testing.B, app0, app1, name string) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	for _, f := range experiments.PaperModels() {
		b.Run(f.Name, func(b *testing.B) {
			var res experiments.EnergyDivisionResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.EnergyDivision(cfg, f, app0, app1, 6, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			writeResult(b, res.Table(), fmt.Sprintf("%s-%s", name, f.Name))
		})
	}
}

// BenchmarkFig12Build2Dacapo regenerates Fig 12 and the §V-A deltas
// (paper: BUILD2 −6 %, DACAPO −35 %, total −13 %).
func BenchmarkFig12Build2Dacapo(b *testing.B) {
	benchEnergy(b, "build2", "dacapo", "fig12")
}

// BenchmarkFig13CompressCloverleaf regenerates Fig 13.
func BenchmarkFig13CompressCloverleaf(b *testing.B) {
	benchEnergy(b, "compress-7zip", "cloverleaf", "fig13")
}

// BenchmarkLabErrorTableCold regenerates the §IV-A error summary on both
// machines with all models (the paper's headline numbers) through the
// streaming pipeline — the configuration the CLIs run in — in a fresh
// cache scope each iteration: each pass re-simulates every solo and pair
// run from scratch. This is the raw-speed rung — the number that can
// only improve through the simulator and scoring kernels, never through
// caching — and the one the bench-diff rate gate polices (cold iterations
// do identical work, so their scenarios/sec is comparable across runs even
// at -benchtime 1x).
func BenchmarkLabErrorTableCold(b *testing.B) {
	benchLabErrorTable(b, func(ctx protocol.Context, extra ...models.Factory) (map[string]experiments.ScatterResult, error) {
		ctx.Cache = protocol.NewCacheScope(0)
		return experiments.LabEvaluationStreaming(ctx, extra...)
	})
}

// BenchmarkLabErrorTableDiskWarm is the cold campaign with a warm
// persistent summary cache attached to each iteration's fresh scope (a
// fresh process, in effect), so phase 1 baselines load from disk while pair
// runs still simulate. The untimed warm-up pass primes the
// disk tier; the gap to Cold is what the tier buys a restarted process.
func BenchmarkLabErrorTableDiskWarm(b *testing.B) {
	disk, err := protocol.OpenDiskCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	benchLabErrorTable(b, func(ctx protocol.Context, extra ...models.Factory) (map[string]experiments.ScatterResult, error) {
		ctx.Cache = protocol.NewCacheScope(0)
		ctx.Cache.AttachDisk(disk)
		return experiments.LabEvaluationStreaming(ctx, extra...)
	})
}

// benchLabErrorTable runs evaluate once untimed (a no-op beyond disk
// priming, since every pass opens a fresh scope) and then b.N timed
// passes, with the obs registry enabled so each rung also reports
// segments_per_scenario — how many constant segments the engine evaluated
// per scenario, averaged over the campaign's pair and solo runs. A
// per-tick engine reports the tick count (~121 on the default context);
// the segment engine reports the scenario's change-point structure (an
// order of magnitude lower), which is where the cold-path speedup comes
// from. Counter flushes are per run, so enabling the registry does not
// perturb the timed loop. No heap watermark: a cold pass's transient
// garbage peak is GC-pacing noise, not a retention signal.
func benchLabErrorTable(b *testing.B, evaluate func(protocol.Context, ...models.Factory) (map[string]experiments.ScatterResult, error)) {
	wasEnabled := obs.Enabled()
	obs.Enable(true)
	defer obs.Enable(wasEnabled)
	for _, spec := range cpumodel.Specs() {
		b.Run(slug(spec.Name), func(b *testing.B) {
			ctx := experiments.LabContext(spec, benchSeed)
			nScenarios := labScenarioCount(b, ctx)
			if _, err := evaluate(ctx, models.NewKepler(), models.NewOracle()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			segCounter := obs.Default().Get("powerdiv_machine_segments_total")
			segStart := segCounter.Snapshot().Value
			b.ResetTimer()
			var results map[string]experiments.ScatterResult
			for i := 0; i < b.N; i++ {
				var err error
				results, err = evaluate(ctx, models.NewKepler(), models.NewOracle())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if segs := segCounter.Snapshot().Value - segStart; segs > 0 {
				b.ReportMetric(segs/float64(nScenarios*b.N), "segments_per_scenario")
			}
			reportScenariosPerSec(b, nScenarios)
			writeResult(b, experiments.ErrorTable(spec.Name, results), "errors-"+slug(spec.Name))
		})
	}
}

// startHeapWatermark samples the live heap in the background and returns a
// stop function yielding the high-water HeapAlloc in bytes. The sampler is
// coarse (stop-the-world reads every 100 ms — frequent enough to catch a
// campaign that retains hundreds of megabytes of runs, rare enough not to
// perturb the timed loop), so the watermark separates a pipeline retaining
// full runs from one that keeps compact digests, not exact peaks. stop
// takes one last sample, so a loop shorter than the period still reports
// its end-of-loop heap rather than the heap right after the start-up GC.
func startHeapWatermark() (stop func() float64) {
	runtime.GC()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(max(peak, ms.HeapAlloc))
	}
}

// BenchmarkCampaignParallel measures the scenario-parallel campaign at a
// ladder of worker counts (Evaluate hands scenarios to a
// GOMAXPROCS-wide pool). Each iteration runs in a fresh cache scope, so
// each rung re-simulates and re-scores every scenario rather
// than replaying the evaluation digests the previous rung stored. On a
// single-core runner the ladder still exercises the pool dispatch path at
// width 2; on wider machines it shows the scaling headroom.
func BenchmarkCampaignParallel(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	scenarios, err := protocol.StressPairs(workload.StressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		b.Fatal(err)
	}
	widths := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Cache = protocol.NewCacheScope(0)
				if _, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
					Kind: protocol.PairCampaign, Scenarios: scenarios, Factories: protocol.FixedFactories(models.NewScaphandre()),
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportScenariosPerSec(b, len(scenarios))
		})
	}
}

// reportScenariosPerSec emits the scenarios/sec throughput metric, guarded
// against a zero-elapsed timer (possible when every iteration is served
// from the memoization cache on a coarse clock): dividing by it would
// report +Inf and poison benchstat comparisons, so the metric is skipped.
func reportScenariosPerSec(b *testing.B, scenarios int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(scenarios)*float64(b.N)/secs, "scenarios/sec")
	}
}

// labScenarioCount returns the size of the all-pairs stress campaign the
// lab evaluation runs, for the scenarios/sec metric.
func labScenarioCount(b *testing.B, ctx protocol.Context) int {
	b.Helper()
	scenarios, err := protocol.StressPairs(workload.StressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		b.Fatal(err)
	}
	return len(scenarios)
}

// BenchmarkCampaignMemoization isolates the baseline tier's effect on the
// all-pairs lab campaign. "on" runs each iteration in a fresh cache scope,
// so it measures only intra-campaign sharing (each solo baseline measured
// once through the baseline tier), and "off" runs with no scope. Every
// model observes one simulator pass per scenario either way, so the ratio
// of the two ns/op values — the memoization speedup — stays near 1; a
// campaign test asserts the two configurations produce identical error
// tables.
func BenchmarkCampaignMemoization(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	nScenarios := labScenarioCount(b, ctx)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Cache = nil
				if mode.on {
					ctx.Cache = protocol.NewCacheScope(0)
				}
				if _, err := experiments.LabEvaluationStreaming(ctx, models.NewKepler(), models.NewOracle()); err != nil {
					b.Fatal(err)
				}
			}
			reportScenariosPerSec(b, nScenarios)
		})
	}
}

// BenchmarkTrafficCampaign measures the production-shaped traffic pipeline:
// generated churn schedules scored per tick by all six models on the fused
// streaming path. The peak-heap metric pins the bounded-memory claim — the
// campaign never materializes a full run per scenario. One untimed campaign
// runs first, so the pools' warm-up and phase 1 on the cold default scope
// stay out of both B/op and the watermark: at bench-diff's one iteration,
// they would otherwise read about 3× the steady-state bytes per campaign.
func BenchmarkTrafficCampaign(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	cfg := experiments.TrafficConfig(ctx, traffic.Mixed, 24, 15*time.Second)
	if _, err := experiments.TrafficCampaign(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	stopWatermark := startHeapWatermark()
	b.ResetTimer()
	var res experiments.TrafficResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.TrafficCampaign(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(stopWatermark(), "peak-heap-bytes")
	reportScenariosPerSec(b, cfg.Scenarios)
	writeResult(b, res.Table(), "traffic-campaign")
}

// BenchmarkTrafficPhase1DiskWarm is the campaign service's per-job phase 1:
// the baselines of a 48-scenario mixed traffic job measured in a fresh
// cache scope over a disk tier the untimed warm-up primed, as every job a
// running daemon admits does. Each iteration is all disk hits — file read,
// record check, no simulation — so B/op pins what the disk tier costs per
// job and bench-diff's B/op gate polices it.
func BenchmarkTrafficPhase1DiskWarm(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	scenarios, err := traffic.Generate(experiments.TrafficConfig(ctx, traffic.Mixed, 48, 10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	apps := protocol.BaselineAppsOf(scenarios)
	disk, err := protocol.OpenDiskCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	phase1 := func() {
		c := ctx
		c.Cache = protocol.NewCacheScope(0)
		c.Cache.AttachDisk(disk)
		defer c.Cache.Drop()
		if _, err := protocol.Measure(context.Background(), c, apps); err != nil {
			b.Fatal(err)
		}
	}
	phase1() // primes the disk tier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phase1()
	}
}

// BenchmarkDiskCacheStore is a cold phase 1 over a disk tier whose
// directory already holds 10k records, as a long-lived daemon's does: each
// iteration measures one solo baseline under a fresh seed in a fresh
// scope, so the disk lookup misses, the run simulates and its record is
// stored. The untimed first store counts the directory, so the timed
// stores pay for the record alone, not for a walk over every file.
func BenchmarkDiskCacheStore(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	app, err := protocol.StressApp("fibonacci", 2)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	disk, err := protocol.OpenDiskCache(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	measure := func(seed int64) {
		c := ctx
		c.Seed = seed
		c.Cache = protocol.NewCacheScope(0)
		c.Cache.AttachDisk(disk)
		defer c.Cache.Drop()
		if _, err := protocol.Measure(context.Background(), c, []protocol.AppSpec{app}); err != nil {
			b.Fatal(err)
		}
	}
	// Fill the directory with copies of one real record: a walk lstats
	// every file whatever it holds.
	measure(-1)
	files, err := filepath.Glob(filepath.Join(dir, "*.pds"))
	if err != nil || len(files) != 1 {
		b.Fatalf("priming store left %d records (%v)", len(files), err)
	}
	record, err := os.ReadFile(files[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("fill%05d.pds", i)), record, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	measure(-2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure(int64(i))
	}
}

// BenchmarkFleetCampaign measures the fleet-scale campaign: a
// heterogeneous node population, each node running its own traffic shard
// through the fused streaming pipeline and all seven model families
// (six intrusive plus the WattScope-style non-intrusive model), reduced
// to aggregate error distributions in sorted-node order. The GOMAXPROCS
// ladder exercises the shared worker budget (nodes fan out on the same
// pool the per-node pipeline would otherwise oversubscribe); the
// peak-heap metric pins the claim that per-node results are reduced to
// compact digests, never materialized fleet-wide.
func BenchmarkFleetCampaign(b *testing.B) {
	cfg := fleet.Config{
		Nodes:            24,
		Seed:             benchSeed,
		ScenariosPerNode: 1,
		Window:           2 * time.Second,
		RunFor:           3 * time.Second,
		StableWindow:     time.Second,
		Kernels:          []string{"fibonacci", "matrixprod", "queens"},
	}
	// One scope serves every rung and iteration, so later ones start with
	// warm phase 1 baselines.
	cache := protocol.NewCacheScope(0)
	widths := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			stopWatermark := startHeapWatermark()
			b.ResetTimer()
			var res fleet.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fleet.Campaign(cfg, cache)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(stopWatermark(), "peak-heap-bytes")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cfg.Nodes)*float64(b.N)/secs, "nodes/sec")
			}
			writeResult(b, experiments.FleetTable(res), fmt.Sprintf("fleet-campaign-w%d", w))
		})
	}
}

// BenchmarkSectionVEnergyDeltas regenerates the §V colocation sweep:
// CLOVERLEAF on DAHU against 0/4/9 neighbour VMs (paper: −56 % at 9).
func BenchmarkSectionVEnergyDeltas(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.Dahu(), benchSeed)
	neighbours := []int{0, 4, 9}
	var res map[int]float64
	for i := 0; i < b.N; i++ {
		raw, err := experiments.ColocationSweep(cfg, models.NewScaphandre(), "cloverleaf", 6, neighbours, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		res = map[int]float64{}
		for n, e := range raw {
			res[n] = e.Kilojoules()
		}
	}
	t := report.NewTable("§V — CLOVERLEAF on DAHU", "neighbour VMs", "attributed energy (kJ)")
	for _, n := range neighbours {
		t.AddRowf(n, res[n])
	}
	writeResult(b, t, "sectionV-colocation")
}

// BenchmarkAblationFamilies compares the F1/F2/F3 residual policies
// (coverage and context stability) — DESIGN.md §5.
func BenchmarkAblationFamilies(b *testing.B) {
	var props []experiments.FamilyProperties
	for i := 0; i < b.N; i++ {
		var err error
		props, err = experiments.FamilyAblation(cpumodel.SmallIntel(), "fibonacci", "matrixprod", 3, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, experiments.AblationTable(props), "ablation-families")
}

// BenchmarkAblationStableWindow measures the effect of the paper's
// stable-window selection under exaggerated sensor noise.
func BenchmarkAblationStableWindow(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		var err error
		with, without, err = experiments.StableWindowAblation(cpumodel.SmallIntel(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("mean AE with 10s stable window: %.4f, without: %.4f", with, without)
}

// BenchmarkAblationLearningWindow sweeps PowerAPI's learning window.
func BenchmarkAblationLearningWindow(b *testing.B) {
	windows := []time.Duration{2 * time.Second, 10 * time.Second, 20 * time.Second}
	var res map[time.Duration][2]float64
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.LearningWindowAblation(cpumodel.SmallIntel(), windows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, w := range windows {
		b.Logf("learn window %v: mean AE %.4f, scored ticks %.0f", w, res[w][0], res[w][1])
	}
}

// BenchmarkAblationHTEfficiency sweeps the SMT efficiency factor and
// reports the §V total energy drop it induces.
func BenchmarkAblationHTEfficiency(b *testing.B) {
	factors := []float64{0.2, 0.3, 0.45, 0.6}
	var res map[float64]float64
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.HTEfficiencyAblation(cpumodel.SmallIntel(), factors, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range factors {
		b.Logf("SMT efficiency %.2f: total §V energy drop %.1f%%", f, res[f])
	}
}

// BenchmarkAblationSamplePeriod sweeps the sensor sampling period.
func BenchmarkAblationSamplePeriod(b *testing.B) {
	periods := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond, time.Second}
	var res map[time.Duration]float64
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.SamplePeriodAblation(cpumodel.SmallIntel(), periods, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range periods {
		b.Logf("sample period %v: mean AE %.4f", p, res[p])
	}
}

// BenchmarkShareOut pins the division kernel itself: the in-place column
// form against the map form (which allocates the result map and, in the
// wrapper, sorts the keys every call).
func BenchmarkShareOut(b *testing.B) {
	ids := []string{"fibonacci-3", "matrixprod-3", "int64-2", "rand-1"}
	weights := map[string]float64{}
	col := make([]units.Watts, len(ids))
	for i, id := range ids {
		weights[id] = float64(i + 1)
	}
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := range col {
				col[s] = units.Watts(s + 1)
			}
			if !models.ShareOutInto(40, col) {
				b.Fatal("no positive weight")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if est := models.ShareOut(40, weights); est == nil {
				b.Fatal("no positive weight")
			}
		}
	})
}

// BenchmarkSimulatorTick measures the raw simulator stepping cost on DAHU
// at full load — the substrate's own performance.
func BenchmarkSimulatorTick(b *testing.B) {
	w, _ := workload.StressByName("float64")
	cfg := experiments.LabConfig(cpumodel.Dahu(), benchSeed)
	procs := []machine.Proc{{ID: "p", Workload: w, Threads: 32}}
	// One untimed run fills the simulator's scratch pools, so a
	// one-iteration run (the bench-diff smoke) measures the same
	// steady-state per-run cost as the committed multi-iteration baseline.
	if _, err := machine.Simulate(cfg, procs, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Simulate(cfg, procs, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+32)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// BenchmarkExtensionProfileF2 evaluates the paper's §VI proposal: the
// profile-driven isolated-consumption estimator and the F2 model built on
// it, against Scaphandre on the same campaign.
func BenchmarkExtensionProfileF2(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	var res experiments.ProfileResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ProfileF2Evaluation(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), "extension-profile-f2")
	if os.Getenv("POWERDIV_WRITE_RESULTS") != "" {
		if err := res.LOOTable().WriteCSV(filepath.Join("out", "extension-profile-f2-loo.csv")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionNestedDivision composes a host-level division among
// VMs with per-VM guest divisions — the paper's introduction scenario
// (provider and tenant as two actors).
func BenchmarkExtensionNestedDivision(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	fib, _ := workload.StressByName("fibonacci")
	mat, _ := workload.StressByName("matrixprod")
	jmp, _ := workload.StressByName("jmp")
	rnd, _ := workload.StressByName("rand")
	vms := []vm.MultiVM{
		{Name: "vm0", VCPUs: 6, Guests: []machine.Proc{
			{ID: "fib", Workload: fib, Threads: 2},
			{ID: "mat", Workload: mat, Threads: 2},
		}},
		{Name: "vm1", VCPUs: 6, Guests: []machine.Proc{
			{ID: "jmp", Workload: jmp, Threads: 2},
			{ID: "rand", Workload: rnd, Threads: 2},
		}},
	}
	var last vm.NestedTick
	for i := 0; i < b.N; i++ {
		procs, err := vm.HostMulti(cfg, vms)
		if err != nil {
			b.Fatal(err)
		}
		run, err := machine.Simulate(cfg, procs, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		ticks, err := vm.NestedDivision(run, models.NewScaphandre(), models.NewScaphandre(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = ticks[len(ticks)-1]
	}
	t := report.NewTable("Nested division — final tick", "account", "watts")
	for _, name := range []string{"vm0", "vm1"} {
		t.AddRowf(name, float64(last.PerVM[name]))
	}
	for _, id := range []string{"vm0/fib", "vm0/mat", "vm1/jmp", "vm1/rand"} {
		t.AddRowf(id, float64(last.PerGuest[id]))
	}
	writeResult(b, t, "extension-nested")
}

// BenchmarkExtensionMultiApp extends the campaign to 3-way scenarios.
func BenchmarkExtensionMultiApp(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	var res experiments.MultiAppResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.MultiAppEvaluation(ctx, models.NewScaphandre(), workload.StressNames(), []int{2, 3}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), "extension-multiapp")
}

// BenchmarkExtensionEnergyLedger measures the accounting layer over a
// Section V colocation run.
func BenchmarkExtensionEnergyLedger(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	b2, _ := workload.PhoronixByName("build2")
	dc, _ := workload.PhoronixByName("dacapo")
	run, err := vm.SimulateColocation(cfg, []vm.VM{
		{Name: "build2", VCPUs: 6, App: b2},
		{Name: "dacapo", VCPUs: 6, App: dc},
	}, 500*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ledger *energyacct.Ledger
	for i := 0; i < b.N; i++ {
		ledger = energyacct.FromRun(run, models.NewScaphandre(), benchSeed)
		if err := ledger.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	t := report.NewTable("Energy accounts — build2 ∥ dacapo", "account", "kJ")
	for _, e := range ledger.Entries() {
		t.AddRowf(e.ID, e.Energy.Kilojoules())
	}
	t.AddRowf("(unattributed)", ledger.Unattributed().Kilojoules())
	writeResult(b, t, "extension-ledger")
}

// BenchmarkExtensionBehaviorCorrelation quantifies §V-A's "mirroring"
// observation: the correlation of each attributed curve with its own vs
// the co-runner's solo signature.
func BenchmarkExtensionBehaviorCorrelation(b *testing.B) {
	cfg := experiments.ProdConfig(cpumodel.SmallIntel(), benchSeed)
	var r1, r2 experiments.BehaviorResult
	for i := 0; i < b.N; i++ {
		var err error
		r1, err = experiments.BehaviorCorrelation(cfg, models.NewScaphandre(), "build2", "dacapo", 6, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		r2, err = experiments.BehaviorCorrelation(cfg, models.NewScaphandre(), "compress-7zip", "cloverleaf", 6, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, r1.Table(), "extension-behavior-build2-dacapo")
	writeResult(b, r2.Table(), "extension-behavior-7zip-cloverleaf")
}

// BenchmarkProductionContext runs the protocol campaign in the paper's
// production context (hyperthreading and turbo enabled) on both machines —
// §III-C defines the objective there too; the paper's campaign numbers are
// laboratory-only, so these rows are additional coverage.
func BenchmarkProductionContext(b *testing.B) {
	for _, spec := range cpumodel.Specs() {
		b.Run(slug(spec.Name), func(b *testing.B) {
			ctx := experiments.ProdContext(spec, benchSeed)
			var res experiments.ScatterResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.RatioScatter(ctx, models.NewScaphandre())
				if err != nil {
					b.Fatal(err)
				}
			}
			writeResult(b, res.Table(), "prod-scaphandre-"+slug(spec.Name))
		})
	}
}

// BenchmarkExtensionResidualAware evaluates the residual-aware model on
// the §IV-B campaign — the calibrated fix for challenge C3.
func BenchmarkExtensionResidualAware(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	ra := models.NewResidualAwareFromSpec(cpumodel.SmallIntel())
	var res experiments.CappingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ResidualCapping(ctx, ra, workload.StressNames(), []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(b, res.Table(), "extension-residual-aware")
}

// BenchmarkExtensionTimeline quantifies the Fig 11 dynamic-context setting:
// a model's error and estimate coverage under application arrivals and
// departures (PowerAPI relearns at every change and loses roughly half its
// coverage on a three-phase timeline).
func BenchmarkExtensionTimeline(b *testing.B) {
	t := benchFig11Timeline(b, "Fig 11 timeline — model error and coverage under churn", experiments.PaperModels())
	writeResult(b, t, "extension-timeline")
}

// benchFig11Timeline scores fs over the Fig 11 timeline — three int64-2
// instances, P1 present from 20 s to 40 s and P2 from 40 s on — once per
// iteration, as one TimelineCampaign, and tabulates each model's error
// and coverage.
func benchFig11Timeline(b *testing.B, title string, fs []models.Factory) *report.Table {
	ctx := experiments.LabContext(cpumodel.SmallIntel(), benchSeed)
	var s protocol.Scenario
	for _, id := range []string{"P0", "P1", "P2"} {
		app, err := protocol.StressApp("int64", 2)
		if err != nil {
			b.Fatal(err)
		}
		app.ID = id
		s.Apps = append(s.Apps, app)
	}
	s.Apps[1].StartAt, s.Apps[1].StopAt = 20*time.Second, 40*time.Second
	s.Apps[2].StartAt = 40 * time.Second
	baselines, err := protocol.Measure(context.Background(), ctx, s.Apps)
	if err != nil {
		b.Fatal(err)
	}
	var res protocol.Result
	for i := 0; i < b.N; i++ {
		res, err = protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
			Kind: protocol.TimelineCampaign, Scenarios: []protocol.Scenario{s}, Factories: protocol.FixedFactories(fs...),
			Baselines: baselines, Window: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	t := report.NewTable(title, "model", "AE", "coverage")
	for m, f := range res.Factories {
		r := res.Traffic(m)[0]
		t.AddRow(f.Name, report.Percent(r.AE), report.Percent(r.Coverage))
	}
	return t
}

// BenchmarkAblationPowerAPIDeterminism isolates how much of PowerAPI's
// DAHU error the calibration instability accounts for.
func BenchmarkAblationPowerAPIDeterminism(b *testing.B) {
	ctx := experiments.LabContext(cpumodel.Dahu(), benchSeed)
	var with, without float64
	for i := 0; i < b.N; i++ {
		var err error
		with, without, err = experiments.PowerAPIDeterminismAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("PowerAPI mean AE with pathology: %.4f, without: %.4f", with, without)
}

// BenchmarkExtensionSmartWatts contrasts the per-frequency-bin SmartWatts
// calibration with PowerAPI under context churn: SmartWatts pays one
// warm-up per frequency bin instead of one per context.
func BenchmarkExtensionSmartWatts(b *testing.B) {
	t := benchFig11Timeline(b, "SmartWatts vs PowerAPI under churn", []models.Factory{
		models.NewSmartWatts(models.DefaultSmartWattsConfig()),
		models.NewPowerAPI(models.DefaultPowerAPIConfig()),
	})
	writeResult(b, t, "extension-smartwatts")
}
