package models

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/machine"
	"powerdiv/internal/perfcnt"
	"powerdiv/internal/units"
)

// observeGoldenPath freezes every built-in model's per-tick output: one
// "model cpus path digest" line per configuration.
var observeGoldenPath = filepath.Join("testdata", "observe_golden.txt")

// goldenPool is the process-ID pool the golden inputs churn through.
var goldenPool = []string{"p0", "p1", "p2", "p3", "p4", "p5"}

// goldenFactories are the built-in models the observe corpus covers. The
// PowerAPI learning window is shortened so calibrations (and, on many-core
// machines, degenerate ones) land inside the input sequences.
func goldenFactories() []Factory {
	pcfg := DefaultPowerAPIConfig()
	pcfg.LearnWindow = time.Second
	return []Factory{
		NewScaphandre(),
		NewKepler(),
		NewOracle(),
		NewF2(map[string]units.Watts{"p0": 3, "p1": 5, "p2": 2, "p4": 4}),
		NewWattScope(),
		NewResidualAwareFromSpec(cpumodel.SmallIntel()),
		NewSmartWatts(DefaultSmartWattsConfig()),
		NewPowerAPI(pcfg),
	}
}

// goldenTicks builds a deterministic tick sequence over the whole pool:
// the present set holds for stretches of ticks and then churns, and the
// stream mixes in process-free ticks, processes with an unknown thread
// count (they run one thread), zero-CPU processes, degraded intervals and
// two frequency bins. Absent slots hold zero samples.
func goldenTicks(seed int64, logical int) []Tick {
	rng := rand.New(rand.NewSource(seed))
	roster := machine.NewRoster(goldenPool)
	const interval = 50 * time.Millisecond
	var ticks []Tick
	var ids []string
	idle := map[string]bool{}
	left := 0
	for i := 0; i < 320; i++ {
		if left == 0 {
			left = 5 + rng.Intn(40)
			ids = ids[:0]
			for _, id := range goldenPool {
				if rng.Float64() < 0.5 {
					ids = append(ids, id)
				}
			}
			clear(idle)
			if len(ids) > 1 && rng.Float64() < 0.3 {
				idle[ids[rng.Intn(len(ids))]] = true
			}
		}
		left--
		t := Tick{
			At:           time.Duration(i) * interval,
			Interval:     interval,
			MachinePower: units.Watts(20 + rng.Float64()*60),
			LogicalCPUs:  logical,
			Freq:         units.Hertz(2+rng.Intn(2)) * units.GHz,
			Degraded:     rng.Float64() < 0.1,
			Roster:       roster,
			Samples:      make([]ProcSample, roster.Len()),
		}
		// Two kinds of process-free tick (3 % each) draw no samples.
		if rng.Float64() >= 0.06 {
			for _, id := range ids {
				p := goldenSample(rng, interval)
				if idle[id] || rng.Float64() < 0.05 {
					p.CPUTime = 0
				}
				if rng.Float64() < 0.15 {
					p.Threads = 1
				}
				slot, _ := roster.Slot(id)
				t.Samples[slot] = p
			}
		}
		ticks = append(ticks, t)
	}
	return ticks
}

func goldenSample(rng *rand.Rand, interval time.Duration) ProcSample {
	return ProcSample{
		CPUTime: units.CPUTime(time.Duration(1 + rng.Int63n(int64(2*interval)))),
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

// goldenWrite hashes one tick's result: the estimate flag, then each ID's
// estimate bits in sorted order. A missing key hashes like an explicit 0.
func goldenWrite(h hash.Hash64, ok bool, ids []string, est func(id string) units.Watts) {
	var b [8]byte
	if !ok {
		h.Write([]byte{0})
		return
	}
	h.Write([]byte{1})
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(est(id))))
		h.Write(b[:])
	}
}

// observeGoldenLines computes the corpus: each factory on 12 and 64
// logical CPUs, five input seeds × four model seeds, through three entry
// points — Observe over each tick's present set (churnTicks: the roster a
// producer with a churning process set builds; the "map" lines),
// ObserveInto over the pool roster (with a dirty output column each call)
// and Observe over the pool roster.
func observeGoldenLines(t *testing.T) string {
	var b strings.Builder
	for _, f := range goldenFactories() {
		for _, logical := range []int{12, 64} {
			hMap, hDense, hDenseMap := fnv.New64a(), fnv.New64a(), fnv.New64a()
			for in := int64(1); in <= 5; in++ {
				poolTicks := goldenTicks(in, logical)
				presentTicks := churnTicks(poolTicks)
				for ms := int64(0); ms < 4; ms++ {
					seed := in*1000 + ms
					m := f.New(seed)
					for _, tk := range presentTicks {
						est := m.Observe(tk)
						goldenWrite(hMap, est != nil, tk.Roster.IDs(), func(id string) units.Watts { return est[id] })
					}
					dm, ok := f.New(seed).(DenseModel)
					if !ok {
						t.Fatalf("%s does not implement DenseModel", f.Name)
					}
					out := make([]units.Watts, len(goldenPool))
					for k, tk := range poolTicks {
						for s := range out {
							out[s] = units.Watts(math.NaN())
							if k%2 == 1 {
								out[s] = units.Watts(s + 7)
							}
						}
						ok := dm.ObserveInto(tk, out)
						goldenWrite(hDense, ok, goldenPool, func(id string) units.Watts {
							slot, _ := tk.Roster.Slot(id)
							return out[slot]
						})
					}
					mm := f.New(seed)
					for _, tk := range poolTicks {
						est := mm.Observe(tk)
						goldenWrite(hDenseMap, est != nil, goldenPool, func(id string) units.Watts { return est[id] })
					}
				}
			}
			fmt.Fprintf(&b, "%s %d map %016x\n", f.Name, logical, hMap.Sum64())
			fmt.Fprintf(&b, "%s %d dense %016x\n", f.Name, logical, hDense.Sum64())
			fmt.Fprintf(&b, "%s %d dense-map %016x\n", f.Name, logical, hDenseMap.Sum64())
		}
	}
	return b.String()
}

// TestObserveGolden recomputes every model's per-tick output over the
// golden inputs and compares it with the frozen corpus. There is no update
// flag: on a mismatch the test logs the recomputed file.
func TestObserveGolden(t *testing.T) {
	got := observeGoldenLines(t)
	want, err := os.ReadFile(observeGoldenPath)
	if err != nil {
		t.Fatalf("read observe corpus: %v\nrecomputed:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("observe corpus mismatch\nwant:\n%s\ngot:\n%s", want, got)
	}
}
