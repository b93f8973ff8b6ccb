package protocol

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
)

// Objective selects the truth construction a model is scored against.
type Objective int

const (
	// ObjectiveActive is Equation 3: shares of isolated active power. The
	// default, used for the §IV-A laboratory and production evaluations.
	ObjectiveActive Objective = iota
	// ObjectiveResidualAware allocates inter-application residual deltas
	// to the application causing them (§IV-B, Fig 9a).
	ObjectiveResidualAware
	// ObjectiveNominalResidual treats residual above the nominal-frequency
	// residual R0 as application consumption (§IV-B, Fig 9b).
	ObjectiveNominalResidual
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveActive:
		return "active (Eq 3)"
	case ObjectiveResidualAware:
		return "residual-aware (Fig 9a)"
	case ObjectiveNominalResidual:
		return "nominal-residual (Fig 9b)"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Scenario is a parallel scenario S of applications (usually a pair).
type Scenario struct {
	Apps []AppSpec
}

// Label identifies the scenario, e.g. "fibonacci-3 || matrixprod-3".
func (s Scenario) Label() string {
	if len(s.Apps) == 1 {
		return s.Apps[0].ID
	}
	n := 0
	for _, a := range s.Apps {
		n += len(a.ID) + len(labelSep)
	}
	var b strings.Builder
	b.Grow(n)
	for i, a := range s.Apps {
		if i > 0 {
			b.WriteString(labelSep)
		}
		b.WriteString(a.ID)
	}
	return b.String()
}

// labelSep separates app IDs in a scenario label.
const labelSep = " || "

// SameSize reports whether all applications have the same thread count.
func (s Scenario) SameSize() bool {
	for _, a := range s.Apps[1:] {
		if a.Threads != s.Apps[0].Threads {
			return false
		}
	}
	return true
}

// Evaluation is the scored outcome of one model on one scenario.
type Evaluation struct {
	Scenario Scenario
	Model    string
	// AE is the absolute error of Equation 5 over the scored window.
	AE float64
	// Truth is the objective share of each application and EstShare the
	// model's mean estimated share over the scored window (all zero when
	// the window's mean power is not positive), both index-aligned with
	// Scenario.Apps. The vectors are views into storage shared by the
	// campaign's rows; Truth is shared by every model's row.
	Truth    []float64
	EstShare []float64
	// Point is the scenario's ratio-scatter point (Fig 4–7 axes), defined
	// for two-application scenarios.
	Point division.RatioPoint
	// ScoredTicks is how many ticks entered the Eq 5 average.
	ScoredTicks int
}

// Summary aggregates the evaluations of one model over a campaign.
type Summary struct {
	Model string
	// MeanAE and MaxAE are over all scenarios (Eq 5 averaged per scenario
	// first, as the paper reports).
	MeanAE float64
	MaxAE  float64
	// WorstScenario is the first scenario achieving MaxAE, empty when no
	// error is positive.
	WorstScenario string
	Evaluations   []Evaluation
}

// Summarize aggregates per-scenario evaluations.
func Summarize(model string, evs []Evaluation) Summary {
	var f AEFold
	for _, ev := range evs {
		f.Add(ev.AE, 0, true)
	}
	s := Summary{Model: model, MeanAE: f.MeanAE(), MaxAE: f.MaxAE(), Evaluations: evs}
	if s.MaxAE > 0 {
		s.WorstScenario = evs[f.Worst()].Scenario.Label()
	}
	return s
}

// StressPairs generates the paper's phase 2 scenario list: every unordered
// pair of distinct stress functions at each same-size combination, plus
// every ordered-by-size pair (including same function) across different
// sizes. sizes must be chosen so the largest pair fits the machine without
// contention (3+3 on SMALL INTEL without HT, 16+16 on DAHU).
func StressPairs(fns []string, sizes []int) ([]Scenario, error) {
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	// Resolve every (function, size) app once; the scenarios share them.
	apps := make([][]AppSpec, len(sorted))
	for si, n := range sorted {
		apps[si] = make([]AppSpec, len(fns))
		for i, fn := range fns {
			a, err := StressApp(fn, n)
			if err != nil {
				return nil, err
			}
			apps[si][i] = a
		}
	}
	var out []Scenario
	pair := func(a, b AppSpec) { out = append(out, Scenario{Apps: []AppSpec{a, b}}) }
	// Same size, distinct functions.
	for si := range sorted {
		for i := 0; i < len(fns); i++ {
			for j := i + 1; j < len(fns); j++ {
				pair(apps[si][i], apps[si][j])
			}
		}
	}
	// Different sizes, all function combinations (including identical).
	for si := 0; si < len(sorted); si++ {
		for sj := si + 1; sj < len(sorted); sj++ {
			for i := 0; i < len(fns); i++ {
				for j := 0; j < len(fns); j++ {
					pair(apps[si][i], apps[sj][j])
				}
			}
		}
	}
	return out, nil
}

// StressCombos generates all k-way combinations of distinct stress
// functions at a fixed thread count — the n-application generalisation of
// the pair campaign (the paper's formalism defines scenarios of n
// applications; its evaluation stops at pairs). k×threads must fit the
// machine without contention.
func StressCombos(fns []string, threads, k int) ([]Scenario, error) {
	if k < 2 {
		return nil, fmt.Errorf("protocol: combination size %d", k)
	}
	if k > len(fns) {
		return nil, fmt.Errorf("protocol: %d-way combos of %d functions", k, len(fns))
	}
	var out []Scenario
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		apps := make([]AppSpec, k)
		for i, j := range idx {
			a, err := StressApp(fns[j], threads)
			if err != nil {
				return nil, err
			}
			apps[i] = a
		}
		out = append(out, Scenario{Apps: apps})
		// Next combination (lexicographic).
		i := k - 1
		for i >= 0 && idx[i] == len(fns)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out, nil
}

// AppsOf collects the distinct applications appearing in the scenarios,
// keyed by ID — the phase 1 measurement list.
func AppsOf(scenarios []Scenario) []AppSpec {
	return distinctApps(scenarios, func(a AppSpec) AppSpec { return a })
}

// BaselineAppsOf collects the distinct application *types* appearing in the
// scenarios — the phase 1 measurement list for traffic campaigns, where many
// short-lived instances share one baseline. Each returned spec is the
// stripped baselineSpec (ID = baselineID, no lifetime offsets), sorted by
// ID. For scenarios without traffic fields it coincides with AppsOf.
func BaselineAppsOf(scenarios []Scenario) []AppSpec {
	return distinctApps(scenarios, AppSpec.baselineSpec)
}

// distinctApps maps every application of the scenarios through spec and
// returns the distinct results by ID (the last one seen wins), sorted by
// ID.
func distinctApps(scenarios []Scenario, spec func(AppSpec) AppSpec) []AppSpec {
	seen := map[string]AppSpec{}
	for _, s := range scenarios {
		for _, a := range s.Apps {
			b := spec(a)
			seen[b.ID] = b
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]AppSpec, len(ids))
	for i, id := range ids {
		out[i] = seen[id]
	}
	return out
}

// MaxThreadsWithoutContention returns the largest per-application thread
// count so that two applications fit the machine's schedulable CPUs — the
// paper's "the two largest applications can run on the machines without
// competing for CPU".
func MaxThreadsWithoutContention(cfg machine.Config) int {
	n := cfg.Spec.Topology.PhysicalCores()
	if cfg.Hyperthreading {
		n = cfg.Spec.Topology.LogicalCPUs()
	}
	return n / 2
}

// SizesFor returns the thread-size ladder {max/4, max/2, max} used by the
// evaluations (1,2,3 → SMALL INTEL lab handled by rounding up to ≥1).
func SizesFor(cfg machine.Config) []int {
	max := MaxThreadsWithoutContention(cfg)
	sizes := []int{
		int(math.Max(1, math.Round(float64(max)/4))),
		int(math.Max(1, math.Round(float64(max)/2))),
		max,
	}
	// Deduplicate in case of tiny machines.
	out := sizes[:0]
	seen := map[int]bool{}
	for _, s := range sizes {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
