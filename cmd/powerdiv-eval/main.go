// Command powerdiv-eval runs the paper's evaluation protocol (§III-E) on a
// simulated machine: phase 1 isolated baselines for every stress
// application, phase 2 parallel pair scenarios, phase 3 Equation 5 scoring
// of each power division model — the §IV-A campaign behind Fig 4–7.
//
// With -traffic it instead scores the models over production-shaped timed
// rosters: generated arrival schedules (Poisson, bursty, diurnal) whose
// instances start and exit mid-run, evaluated per tick on the fused
// streaming pipeline. -traffic-record saves the exact schedule as a JSON
// trace; -traffic-replay re-scores a saved trace bit-identically.
//
// With -fleet it runs the protocol datacenter-wide: hundreds of
// heterogeneous simulated nodes (mixed SMALL-INTEL/DAHU-derived specs
// with per-node clock skew and sensor seeds), each evaluating its own
// deterministic traffic shard, with the six intrusive models plus the
// WattScope-style non-intrusive model aggregated into fleet-wide error
// distributions. Reruns with the same seed are bit-identical.
//
// Usage:
//
//	powerdiv-eval [-machine DAHU] [-context lab|prod] [-seed 1] [-points] [-csv-dir out/] [-memo=false] [-memo-stats]
//	powerdiv-eval -traffic [-traffic-kind poisson|bursty|diurnal|mixed] [-traffic-scenarios 50] [-traffic-window 30s] [-traffic-record trace.json]
//	powerdiv-eval -traffic-replay trace.json
//	powerdiv-eval -fleet [-fleet-nodes 200] [-fleet-scenarios 1] [-fleet-window 10s] [-fleet-kind mixed] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/experiments"
	"powerdiv/internal/fleet"
	"powerdiv/internal/models"
	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
)

// jsonReport is the machine-readable campaign output.
type jsonReport struct {
	Machine string           `json:"machine"`
	Context string           `json:"context"`
	Models  []jsonModelEntry `json:"models"`
}

type jsonModelEntry struct {
	Model     string      `json:"model"`
	MeanAE    float64     `json:"mean_ae"`
	MaxAE     float64     `json:"max_ae"`
	WorstPair string      `json:"worst_pair"`
	Points    []jsonPoint `json:"points"`
}

type jsonPoint struct {
	Pair  string  `json:"pair"`
	Panel string  `json:"panel"`
	X     float64 `json:"sequential_ratio_pct"`
	Y     float64 `json:"parallel_ratio_pct"`
}

func emitJSON(w io.Writer, machine, context string, results map[string]experiments.ScatterResult) error {
	rep := jsonReport{Machine: machine, Context: context}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := results[n]
		entry := jsonModelEntry{Model: n, MeanAE: r.MeanAE, MaxAE: r.MaxAE, WorstPair: r.WorstPair}
		for _, p := range r.SameSize {
			entry.Points = append(entry.Points, jsonPoint{Pair: p.Label, Panel: "same-size", X: p.X, Y: p.Y})
		}
		for _, p := range r.DiffSize {
			entry.Points = append(entry.Points, jsonPoint{Pair: p.Label, Panel: "diff-size", X: p.X, Y: p.Y})
		}
		rep.Models = append(rep.Models, entry)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	machineName := flag.String("machine", "SMALL INTEL", `machine calibration ("SMALL INTEL" or "DAHU")`)
	context := flag.String("context", "lab", `performance context: "lab" (HT/TB off) or "prod" (on)`)
	seed := flag.Int64("seed", 1, "campaign seed")
	points := flag.Bool("points", false, "also print the per-pair ratio points (Fig 4–7 series)")
	csvDir := flag.String("csv-dir", "", "write per-model point CSVs into this directory")
	asJSON := flag.Bool("json", false, "emit the results as JSON instead of tables")
	memo := flag.Bool("memo", true, "memoize phase 1 baselines (solo runs)")
	memoStats := flag.Bool("memo-stats", false, "print run cache statistics after the campaign")
	cacheDir := flag.String("cache-dir", "", "persistent phase-1 baseline cache directory (empty = memory only; unused with -memo=false)")
	cacheBytes := flag.Int64("cache-bytes", 0, "on-disk cache cap in bytes (0 = default 256 MB)")
	metrics := flag.Bool("metrics", false, "print the internal metrics summary after the campaign")
	trafficOn := flag.Bool("traffic", false, "run a production-shaped traffic campaign instead of the pair campaign")
	trafficKind := flag.String("traffic-kind", "mixed", `arrival process: "poisson", "bursty", "diurnal" or "mixed"`)
	trafficScenarios := flag.Int("traffic-scenarios", 50, "number of generated traffic scenarios")
	trafficWindow := flag.Duration("traffic-window", 30*time.Second, "duration of each traffic scenario")
	trafficRecord := flag.String("traffic-record", "", "write the generated schedule to this JSON trace file")
	trafficReplay := flag.String("traffic-replay", "", "replay a recorded JSON trace instead of generating (implies -traffic)")
	fleetOn := flag.Bool("fleet", false, "run a fleet-wide campaign over heterogeneous simulated nodes")
	fleetNodes := flag.Int("fleet-nodes", 200, "fleet size in nodes")
	fleetScenarios := flag.Int("fleet-scenarios", 1, "traffic scenarios per node")
	fleetWindow := flag.Duration("fleet-window", 10*time.Second, "duration of each fleet scenario")
	fleetKind := flag.String("fleet-kind", "mixed", `fleet arrival process: "poisson", "bursty", "diurnal" or "mixed"`)
	flag.Parse()
	obs.Enable(*metrics)
	// The campaign's one cache scope; -memo=false runs without one.
	var cache *protocol.CacheScope
	if *memo {
		cache = protocol.NewCacheScope(0)
	}
	if *cacheDir != "" && cache != nil {
		disk, err := protocol.OpenDiskCache(*cacheDir, *cacheBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		cache.AttachDisk(disk)
	}

	if *fleetOn {
		// The fleet draws its own heterogeneous spec mix; -machine does
		// not apply. -context prod enables hyperthreading/turbo fleet-wide.
		if *context != "lab" && *context != "prod" {
			fmt.Fprintf(os.Stderr, "unknown context %q (want lab or prod)\n", *context)
			os.Exit(2)
		}
		runFleet(fleetOptions{
			nodes:      *fleetNodes,
			scenarios:  *fleetScenarios,
			window:     *fleetWindow,
			kind:       *fleetKind,
			seed:       *seed,
			production: *context == "prod",
			asJSON:     *asJSON,
			metrics:    *metrics,
			cache:      cache,
		})
		return
	}

	spec, ok := cpumodel.SpecByName(*machineName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machineName)
		os.Exit(2)
	}
	var ctx protocol.Context
	switch *context {
	case "lab":
		ctx = experiments.LabContext(spec, *seed)
	case "prod":
		ctx = experiments.ProdContext(spec, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown context %q (want lab or prod)\n", *context)
		os.Exit(2)
	}
	ctx.Cache = cache

	if *trafficOn || *trafficReplay != "" {
		runTraffic(ctx, *context, trafficOptions{
			kind:      *trafficKind,
			scenarios: *trafficScenarios,
			window:    *trafficWindow,
			record:    *trafficRecord,
			replay:    *trafficReplay,
			asJSON:    *asJSON,
			metrics:   *metrics,
		})
		return
	}

	if !*asJSON {
		fmt.Printf("protocol campaign on %s (%s context), sizes %v\n\n",
			spec.Name, *context, protocol.SizesFor(ctx.Machine))
	}
	results, err := experiments.LabEvaluationStreaming(ctx, models.NewKepler(), models.NewOracle())
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *asJSON {
		if err := emitJSON(os.Stdout, spec.Name, *context, results); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		printMetricsSummary(*metrics)
		return
	}
	fmt.Print(experiments.ErrorTable(spec.Name, results).String())

	if *points {
		for _, name := range []string{"scaphandre", "powerapi"} {
			if r, ok := results[name]; ok {
				fmt.Println()
				fmt.Print(r.PointsTable().String())
			}
		}
	}
	if *memoStats && cache == nil {
		fmt.Println("\nrun cache: off")
	} else if *memoStats {
		st := cache.Stats()
		fmt.Printf("\nrun cache: %d hits, %d misses\n", st.Hits, st.Misses)
		fmt.Printf("baseline tier: %d entries, %d/%d bytes, %d evictions\n",
			st.SummaryEntries, st.SummaryBytes, st.SummaryByteLimit, st.Evictions)
		if *cacheDir != "" {
			fmt.Printf("disk cache: %d hits, %d misses, %d writes\n",
				st.DiskHits, st.DiskMisses, st.DiskWrites)
		}
	}
	if *csvDir != "" {
		for name, r := range results {
			path := filepath.Join(*csvDir, fmt.Sprintf("points-%s-%s.csv",
				strings.ReplaceAll(strings.ToLower(spec.Name), " ", "-"), name))
			if err := r.PointsTable().WriteCSV(path); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
	}
	printMetricsSummary(*metrics)
}

// printMetricsSummary emits the internal metrics to stderr so it composes
// with -json and -csv-dir without corrupting stdout.
func printMetricsSummary(on bool) {
	if on {
		fmt.Fprint(os.Stderr, obs.Default().Summary())
	}
}

// trafficOptions bundles the -traffic* flag values.
type trafficOptions struct {
	kind      string
	scenarios int
	window    time.Duration
	record    string
	replay    string
	asJSON    bool
	metrics   bool
}

// jsonTrafficReport is the machine-readable traffic campaign output.
type jsonTrafficReport struct {
	Machine   string             `json:"machine"`
	Context   string             `json:"context"`
	Kind      string             `json:"kind"`
	Scenarios int                `json:"scenarios"`
	Instances int                `json:"instances"`
	Baselines int                `json:"baselines"`
	WindowNS  int64              `json:"window_ns"`
	Models    []jsonTrafficModel `json:"models"`
}

type jsonTrafficModel struct {
	Model           string  `json:"model"`
	MeanAE          float64 `json:"mean_ae"`
	MaxAE           float64 `json:"max_ae"`
	MeanCoverage    float64 `json:"mean_coverage"`
	WorstScenario   string  `json:"worst_scenario"`
	ScoredScenarios int     `json:"scored_scenarios"`
}

func emitTrafficJSON(w io.Writer, context string, res experiments.TrafficResult) error {
	rep := jsonTrafficReport{
		Machine:   res.Machine,
		Context:   context,
		Kind:      res.Kind,
		Scenarios: res.Scenarios,
		Instances: res.Instances,
		Baselines: res.Baselines,
		WindowNS:  int64(res.Window),
	}
	names := make([]string, 0, len(res.Summaries))
	for n := range res.Summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.Summaries[n]
		rep.Models = append(rep.Models, jsonTrafficModel{
			Model: n, MeanAE: s.MeanAE, MaxAE: s.MaxAE,
			MeanCoverage: s.MeanCoverage, WorstScenario: s.WorstScenario,
			ScoredScenarios: s.Scored,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// fleetOptions bundles the -fleet* flag values.
type fleetOptions struct {
	nodes      int
	scenarios  int
	window     time.Duration
	kind       string
	seed       int64
	production bool
	asJSON     bool
	metrics    bool
	cache      *protocol.CacheScope
}

// jsonFleetReport is the machine-readable fleet campaign output.
type jsonFleetReport struct {
	Nodes     int              `json:"nodes"`
	Classes   map[string]int   `json:"classes"`
	Kind      string           `json:"kind"`
	Scenarios int              `json:"scenarios"`
	Instances int              `json:"instances"`
	WindowNS  int64            `json:"window_ns"`
	Models    []jsonFleetModel `json:"models"`
}

type jsonFleetModel struct {
	Model        string  `json:"model"`
	MeanAE       float64 `json:"mean_ae"`
	P50          float64 `json:"p50_ae"`
	P90          float64 `json:"p90_ae"`
	P99          float64 `json:"p99_ae"`
	MaxAE        float64 `json:"max_ae"`
	MeanCoverage float64 `json:"mean_coverage"`
	WorstNode    string  `json:"worst_node"`
	// ScoredScenarios counts the scenarios the AE fields are over.
	ScoredScenarios int `json:"scored_scenarios"`
}

func emitFleetJSON(w io.Writer, res fleet.Result) error {
	rep := jsonFleetReport{
		Nodes:     res.Nodes,
		Classes:   res.Classes,
		Kind:      res.Kind,
		Scenarios: res.Scenarios,
		Instances: res.Instances,
		WindowNS:  int64(res.Window),
	}
	for _, m := range res.Models {
		rep.Models = append(rep.Models, jsonFleetModel{
			Model: m.Model, MeanAE: m.MeanAE,
			P50: m.P50, P90: m.P90, P99: m.P99, MaxAE: m.MaxAE,
			MeanCoverage: m.MeanCoverage, WorstNode: m.WorstNode,
			ScoredScenarios: m.Scenarios,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runFleet drives a fleet-wide campaign over heterogeneous nodes.
func runFleet(opt fleetOptions) {
	kind, err := traffic.KindByName(opt.kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	cfg := fleet.Config{
		Nodes:            opt.nodes,
		Seed:             opt.seed,
		Kind:             kind,
		ScenariosPerNode: opt.scenarios,
		Window:           opt.window,
		Production:       opt.production,
	}
	res, err := fleet.Campaign(cfg, opt.cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if opt.asJSON {
		if err := emitFleetJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(experiments.FleetTable(res).String())
	}
	printMetricsSummary(opt.metrics)
}

// runTraffic drives a traffic campaign: generate (or replay) the timed
// rosters, score every model on the streaming pipeline, render, and
// optionally record the schedule.
func runTraffic(ctx protocol.Context, context string, opt trafficOptions) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	var res experiments.TrafficResult
	if opt.replay != "" {
		data, err := os.ReadFile(opt.replay)
		if err != nil {
			fail(err)
		}
		tr, err := traffic.Decode(data)
		if err != nil {
			fail(err)
		}
		if res, err = experiments.TrafficReplay(ctx, tr); err != nil {
			fail(err)
		}
	} else {
		kind, err := traffic.KindByName(opt.kind)
		if err != nil {
			fail(err)
		}
		cfg := experiments.TrafficConfig(ctx, kind, opt.scenarios, opt.window)
		if res, err = experiments.TrafficCampaign(ctx, cfg); err != nil {
			fail(err)
		}
	}
	if opt.record != "" {
		data, err := res.Trace.Encode()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(opt.record, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", opt.record)
	}
	if opt.asJSON {
		if err := emitTrafficJSON(os.Stdout, context, res); err != nil {
			fail(err)
		}
	} else {
		fmt.Print(res.Table().String())
	}
	printMetricsSummary(opt.metrics)
}
