// Package experiments contains one driver per table and figure of the
// paper's evaluation, built on the protocol, machine and models packages.
// Each driver returns a typed result that the report package, the CLI
// tools and the benchmark harness render; DESIGN.md maps every paper
// artefact to its driver.
package experiments

import (
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/protocol"
)

// DefaultNoise is the sensor noise used by all experiments; stress-ng
// loads vary by under half a watt, so a quarter watt of Gaussian noise.
const DefaultNoise = 0.25

// LabConfig returns the paper's laboratory context on a machine:
// hyperthreading and turboboost disabled.
func LabConfig(spec cpumodel.Spec, seed int64) machine.Config {
	return machine.Config{Spec: spec, NoiseStddev: DefaultNoise, Seed: seed}
}

// ProdConfig returns the paper's production context: both enabled.
func ProdConfig(spec cpumodel.Spec, seed int64) machine.Config {
	return machine.Config{
		Spec:           spec,
		Hyperthreading: true,
		Turbo:          true,
		NoiseStddev:    DefaultNoise,
		Seed:           seed,
	}
}

// LabContext returns the default protocol context for the laboratory
// evaluation on a machine.
func LabContext(spec cpumodel.Spec, seed int64) protocol.Context {
	ctx := protocol.DefaultContext(LabConfig(spec, seed))
	ctx.Seed = seed
	return ctx
}

// ProdContext returns the default protocol context for the production
// evaluation.
func ProdContext(spec cpumodel.Spec, seed int64) protocol.Context {
	ctx := protocol.DefaultContext(ProdConfig(spec, seed))
	ctx.Seed = seed
	return ctx
}

// PaperModels returns the two models the paper evaluates (§IV-A:
// "PowerAPI and Scaphandre are the models we selected for evaluation").
func PaperModels() []models.Factory {
	return []models.Factory{
		models.NewScaphandre(),
		models.NewPowerAPI(models.DefaultPowerAPIConfig()),
	}
}

// stressRun simulates one stress process configuration for the given
// duration — the building block of the curve and §IV-B experiments.
func stressRun(cfg machine.Config, procs []machine.Proc, d time.Duration) (*machine.Run, error) {
	return machine.Simulate(cfg, procs, d)
}

// replaySegments simulates procs on cfg for at most maxDur while m observes
// the stream segment by segment. yield receives each segment together with
// m's estimate matrix, grown to cover it: the segment's tick i is the
// matrix's tick seg.StartTick+i, and the matrix's roster indexes both the
// estimate rows and seg.Rec.Procs. Both are valid only during the yield.
func replaySegments(cfg machine.Config, procs []machine.Proc, maxDur time.Duration, m models.Model, yield func(seg *machine.Segment, est *models.DenseEstimates)) error {
	ids := make([]string, len(procs))
	for i, p := range procs {
		ids[i] = p.ID
	}
	roster := machine.NewRoster(ids)
	replay := models.NewStreamReplay(roster, []models.Model{m}, cfg.ReservedTicks(maxDur))
	defer replay.Release()
	cpus := cfg.Spec.Topology.LogicalCPUs()
	return machine.Stream(cfg, procs, maxDur, func(seg *machine.Segment) error {
		replay.ObserveSimulated(seg, cpus)
		yield(seg, replay.Estimates(0))
		return nil
	})
}
