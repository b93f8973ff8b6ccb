// Benchmarks of the paper's evaluation and of the campaign engine.
// BenchmarkArtefact/<name> times each entry of experiments.Artefacts() —
// every table and figure the report regenerates — and logs its own table
// (visible with -v; `powerdiv-report -out` writes every table as CSV). The other
// benchmarks are the campaign-speed rungs cmd/powerdiv-bench records in
// BENCH_campaign.json, the real stress kernels and the division kernel.
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
	"strings"
	"sync"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
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
	"powerdiv/internal/workload"
)

const benchSeed = 1

// writeResult logs a result table under a name.
func writeResult(b *testing.B, t *report.Table, name string) {
	b.Helper()
	b.Logf("%s:\n%s", name, t)
}

// BenchmarkArtefact regenerates each artefact of the evaluation at
// benchSeed and logs its own table.
func BenchmarkArtefact(b *testing.B) {
	for _, a := range experiments.Artefacts() {
		b.Run(a.Name, func(b *testing.B) {
			var v any
			for i := 0; i < b.N; i++ {
				var err error
				if v, err = a.Run(benchSeed); err != nil {
					b.Fatal(err)
				}
			}
			writeResult(b, a.Tables(v)[0], a.Name)
		})
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
// persistent baseline cache attached to each iteration's fresh scope (a
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

// slug names a machine's sub-benchmarks, e.g. "SMALL INTEL" → "small-intel".
func slug(name string) string { return strings.ToLower(strings.ReplaceAll(name, " ", "-")) }
