package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// randomDenseTicks builds a tick sequence over a random roster, with
// arbitrary absent-process slots and degraded intervals.
func randomDenseTicks(rng *rand.Rand) []Tick {
	n := 1 + rng.Intn(5)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("proc-%c", 'a'+byte(i))
	}
	roster := machine.NewRoster(ids)
	const interval = 50 * time.Millisecond
	ticks := make([]Tick, 4+rng.Intn(12))
	for i := range ticks {
		col := make([]ProcSample, roster.Len())
		for s := range col {
			if rng.Float64() < 0.3 {
				continue // absent this tick: zero sample, Present() false
			}
			col[s] = ProcSample{
				CPUTime: units.CPUTime(time.Duration(1 + rng.Intn(int(interval)))),
				Counters: perfcnt.Counters{
					Cycles:       rng.Float64() * 1e8,
					Instructions: rng.Float64() * 1e8,
					CacheRefs:    rng.Float64() * 1e6,
					Branches:     rng.Float64() * 1e7,
				},
				Threads:    1 + rng.Intn(4),
				TrueActive: units.Watts(rng.Float64() * 10),
			}
		}
		ticks[i] = Tick{
			At:           time.Duration(i) * interval,
			Interval:     interval,
			MachinePower: units.Watts(15 + rng.Float64()*30),
			LogicalCPUs:  8,
			Freq:         3 * units.GHz,
			Degraded:     rng.Float64() < 0.2,
			Roster:       roster,
			Samples:      col,
		}
	}
	return ticks
}

// TestQuickObserveIntoMatchesObserve drives two instances of every dense
// model through the same arbitrary tick sequence — one via Observe over
// each tick's present set (churnTicks, the roster a churning producer
// builds), one via ObserveInto over the fixed roster — and requires
// bit-identical estimates, including agreement on no-estimate ticks. This
// covers stateful models: PowerAPI's calibration and RNG draws must
// advance identically on both paths.
func TestQuickObserveIntoMatchesObserve(t *testing.T) {
	factories := []Factory{
		NewScaphandre(),
		NewKepler(),
		NewPowerAPI(DefaultPowerAPIConfig()),
		NewSmartWatts(DefaultSmartWattsConfig()),
		NewF2(map[string]units.Watts{
			"proc-a": 3, "proc-b": 4, "proc-c": 5, "proc-d": 2, "proc-e": 6,
		}),
		NewResidualAwareFromSpec(cpumodel.SmallIntel()),
		NewOracle(),
		NewWattScope(),
	}
	for _, f := range factories {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				ticks := randomDenseTicks(rng)
				presentTicks := churnTicks(ticks)
				mapModel := f.New(seed)
				denseModel, ok := f.New(seed).(DenseModel)
				if !ok {
					t.Fatalf("%s does not implement DenseModel", f.Name)
				}
				out := make([]units.Watts, ticks[0].Roster.Len())
				for i, tk := range ticks {
					est := mapModel.Observe(presentTicks[i])
					got := denseModel.ObserveInto(tk, out)
					if (est == nil) != !got {
						return false
					}
					if est == nil {
						continue
					}
					for slot, w := range out {
						id := tk.Roster.ID(slot)
						ew, inMap := est[id]
						if !inMap && w != 0 {
							return false
						}
						if math.Float64bits(float64(ew)) != math.Float64bits(float64(w)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}
