// This file is the library's public facade: the types and constructors a
// downstream user needs to run the paper's protocol, divide power with the
// evaluated models, or meter a real machine — re-exported from the
// internal packages so the import surface is a single package.
//
// The full machinery (simulator internals, experiment drivers for each
// paper figure, report rendering) lives in the internal packages; the
// facade deliberately exposes the stable workflow only:
//
//	ctx := powerdiv.NewLabContext(powerdiv.SmallIntel(), 42)
//	fib, _ := powerdiv.StressApp("fibonacci", 3)
//	mat, _ := powerdiv.StressApp("matrixprod", 3)
//	s := powerdiv.Scenario{Apps: []powerdiv.AppSpec{fib, mat}}
//	baselines, _ := powerdiv.MeasureBaselines(ctx, s.Apps)
//	ev, _ := powerdiv.EvaluatePair(ctx, s, powerdiv.Scaphandre(), baselines, powerdiv.ObjectiveActive, 0)
//	fmt.Println(ev.AE) // Equation 5
package powerdiv

import (
	"context"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/energyacct"
	"powerdiv/internal/isoest"
	"powerdiv/internal/livemeter"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
	"powerdiv/internal/units"
	"powerdiv/internal/workload"
)

// Physical value types.
type (
	// Watts is instantaneous power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// Hertz is frequency.
	Hertz = units.Hertz
)

// Machine modelling.
type (
	// MachineSpec is a machine calibration: topology, frequency domain
	// and power model.
	MachineSpec = cpumodel.Spec
	// MachineConfig configures a simulated machine run (spec plus
	// hyperthreading/turbo toggles, sampling period, sensor noise, seed).
	MachineConfig = machine.Config
	// Proc is one process in a simulated scenario.
	Proc = machine.Proc
	// Run is a completed simulation with its trace and ground truth.
	Run = machine.Run
	// Workload describes what a process executes.
	Workload = workload.Workload
)

// Protocol types.
type (
	// Context is the fixed experimental conditions of an evaluation.
	Context = protocol.Context
	// AppSpec is one application instance under evaluation.
	AppSpec = protocol.AppSpec
	// Scenario is a parallel scenario of applications.
	Scenario = protocol.Scenario
	// Evaluation is a scored model-on-scenario outcome (Equation 5).
	Evaluation = protocol.Evaluation
	// Objective selects the truth construction models are scored against.
	Objective = protocol.Objective
	// Baseline is a phase 1 isolated measurement.
	Baseline = division.Baseline
	// Shares maps application IDs to fractional shares.
	Shares = division.Shares
	// Family is a residual allocation policy family (F1/F2/F3).
	Family = division.Family
)

// Model types.
type (
	// Model is a streaming power division model. Each tick it receives the
	// machine power and a roster-indexed sample column (CPU time,
	// counters, threads; absent processes hold a zero sample) and returns
	// each present process's estimated power, or nil when it has none.
	Model = models.Model
	// ModelFactory constructs model instances per scenario.
	ModelFactory = models.Factory
	// Ledger accumulates attributed energy per application.
	Ledger = energyacct.Ledger
	// LiveMeter divides real RAPL power among real processes.
	LiveMeter = livemeter.Meter
)

// Objectives (see protocol.Objective).
const (
	ObjectiveActive          = protocol.ObjectiveActive
	ObjectiveResidualAware   = protocol.ObjectiveResidualAware
	ObjectiveNominalResidual = protocol.ObjectiveNominalResidual
)

// Residual allocation families (see division.Family).
const (
	F1 = division.F1
	F2 = division.F2
	F3 = division.F3
)

// SmallIntel returns the paper's SMALL INTEL machine calibration
// (6-core/12-thread Xeon W-2133).
func SmallIntel() MachineSpec { return cpumodel.SmallIntel() }

// Dahu returns the paper's DAHU calibration (2×16-core Xeon Gold 6130).
func Dahu() MachineSpec { return cpumodel.Dahu() }

// NewLabContext returns the paper's laboratory context (hyperthreading and
// turbo disabled) on the given machine with default protocol settings.
func NewLabContext(spec MachineSpec, seed int64) Context {
	ctx := protocol.DefaultContext(machine.Config{Spec: spec, NoiseStddev: 0.25, Seed: seed})
	ctx.Seed = seed
	return ctx
}

// NewProductionContext returns the paper's production context (both
// enabled).
func NewProductionContext(spec MachineSpec, seed int64) Context {
	ctx := protocol.DefaultContext(machine.Config{
		Spec:           spec,
		Hyperthreading: true,
		Turbo:          true,
		NoiseStddev:    0.25,
		Seed:           seed,
	})
	ctx.Seed = seed
	return ctx
}

// StressApp builds an application from one of the 12 Table III stress
// functions, e.g. StressApp("matrixprod", 3).
func StressApp(fn string, threads int) (AppSpec, error) { return protocol.StressApp(fn, threads) }

// StressWorkloads returns the Table III stress workload set.
func StressWorkloads() []Workload { return workload.StressSet() }

// NewWorkload starts a builder for a custom workload definition.
func NewWorkload(name string) *workload.Builder { return workload.NewBuilder(name) }

// PhoronixWorkloads returns the Table IV application set.
func PhoronixWorkloads() []Workload { return workload.PhoronixSet() }

// Simulate runs processes on a simulated machine for at most maxDur.
func Simulate(cfg MachineConfig, procs []Proc, maxDur time.Duration) (*Run, error) {
	return machine.Simulate(cfg, procs, maxDur)
}

// MeasureBaselines runs protocol phase 1 for the applications.
func MeasureBaselines(ctx Context, apps []AppSpec) (map[string]Baseline, error) {
	return protocol.Measure(context.Background(), ctx, apps)
}

// EvaluatePair runs protocol phases 2–3: the scenario executes, the model
// divides its power, Equation 5 scores it. r0 is only used by
// ObjectiveNominalResidual.
func EvaluatePair(ctx Context, s Scenario, f ModelFactory, baselines map[string]Baseline, obj Objective, r0 Watts) (Evaluation, error) {
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: []Scenario{s}, Factories: protocol.FixedFactories(f),
		Baselines: baselines, Objectives: []Objective{obj}, R0: r0,
	})
	if err != nil {
		return Evaluation{Scenario: s, Model: f.Name}, err
	}
	return res.Pairs(0, 0)[0], nil
}

// EvaluateCampaign evaluates a model over many scenarios (in parallel
// across CPU cores; results are deterministic).
func EvaluateCampaign(ctx Context, scenarios []Scenario, f ModelFactory, obj Objective, r0 Watts) ([]Evaluation, error) {
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.PairCampaign, Scenarios: scenarios, Factories: protocol.FixedFactories(f),
		Objectives: []Objective{obj}, R0: r0,
	})
	if err != nil {
		return nil, err
	}
	return res.Pairs(0, 0), nil
}

// StressPairs generates the paper's pair campaign scenario list.
func StressPairs(fns []string, sizes []int) ([]Scenario, error) {
	return protocol.StressPairs(fns, sizes)
}

// TimelineApp is an application with a lifetime in a dynamic scenario —
// the arrivals and departures of the paper's Fig 11.
type TimelineApp struct {
	App AppSpec
	// Start is the arrival time; Stop (0 = scenario end) the departure.
	Start, Stop time.Duration
}

// TimelineResult scores a model over a dynamic scenario.
type TimelineResult struct {
	// AE is the Eq 5 absolute error over every scored tick, with the
	// objective shares recomputed per tick over the applications present.
	AE float64
	// Coverage is the fraction of busy ticks (some application running)
	// for which the model produced an estimate — context-change
	// recalibration (PowerAPI's learning drops) lowers it.
	Coverage float64
	// BusyTicks counts ticks with at least one application running;
	// ScoredTicks those that entered the Eq 5 average.
	BusyTicks, ScoredTicks int
}

// EvaluateTimeline scores a model under application arrivals and
// departures — the paper's Fig 11 production setting, quantified. The
// baselines are looked up by application type, as MeasureBaselines keys
// them; the whole timeline is scored, with no stable-window selection.
func EvaluateTimeline(ctx Context, apps []TimelineApp, f ModelFactory, baselines map[string]Baseline, maxDur time.Duration) (TimelineResult, error) {
	s := Scenario{Apps: make([]AppSpec, len(apps))}
	for i, ta := range apps {
		s.Apps[i] = ta.App
		s.Apps[i].StartAt, s.Apps[i].StopAt = ta.Start, ta.Stop
	}
	res, err := protocol.Evaluate(context.Background(), ctx, protocol.Campaign{
		Kind: protocol.TimelineCampaign, Scenarios: []Scenario{s}, Factories: protocol.FixedFactories(f),
		Baselines: baselines, Window: maxDur,
	})
	if err != nil {
		return TimelineResult{}, err
	}
	ev := res.Traffic(0)[0]
	return TimelineResult{AE: ev.AE, Coverage: ev.Coverage, BusyTicks: ev.BusyTicks, ScoredTicks: ev.ScoredTicks}, nil
}

// Scaphandre returns the CPU-time-share division model.
func Scaphandre() ModelFactory { return models.NewScaphandre() }

// PowerAPI returns the counter-regression division model with the paper's
// observed behaviours (learning windows, many-core instability).
func PowerAPI() ModelFactory { return models.NewPowerAPI(models.DefaultPowerAPIConfig()) }

// Kepler returns the instruction-share division model.
func Kepler() ModelFactory { return models.NewKepler() }

// SmartWatts returns the per-frequency-bin calibrating division model.
func SmartWatts() ModelFactory { return models.NewSmartWatts(models.DefaultSmartWattsConfig()) }

// RatioPreservingF2 returns the paper's proposed F2 model driven by
// isolated per-core baselines (watts per core of CPU usage).
func RatioPreservingF2(baselinePerCore map[string]Watts) ModelFactory {
	return models.NewF2(baselinePerCore)
}

// ResidualAware returns the calibrated division model that fixes the
// paper's challenge C3: it decomposes machine power into idle, residual
// and active parts using the machine calibration and attributes residual
// excess to the processes causing it.
func ResidualAware(spec MachineSpec) ModelFactory {
	return models.NewResidualAwareFromSpec(spec)
}

// TrainProfileEstimator fits the §VI isolated-consumption estimator from
// instrumented solo-run samples.
func TrainProfileEstimator(samples []isoest.Sample) (*isoest.Estimator, error) {
	return isoest.Train(samples)
}

// ProfileF2 returns the deployable F2 model driven by a trained profile
// estimator.
func ProfileF2(est *isoest.Estimator) ModelFactory { return isoest.NewProfileF2(est) }

// NewLedger returns an empty per-application energy account.
func NewLedger() *Ledger { return energyacct.New() }

// OpenLiveMeter opens a live power meter over the machine's real RAPL and
// procfs (pass zero-value config for the system defaults). It fails with a
// wrapped rapl.ErrNoRAPL on machines without RAPL.
func OpenLiveMeter(cfg livemeter.Config) (*LiveMeter, error) { return livemeter.Open(cfg) }
