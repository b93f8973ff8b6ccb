package traffic

import (
	"encoding/json"
	"fmt"
	"time"

	"powerdiv/internal/protocol"
	"powerdiv/internal/workload"
)

// TraceVersion is the trace format version this package reads and writes.
const TraceVersion = 1

// Trace is the compact JSON record of a generated schedule: enough to
// replay the exact timed scenarios on another run or machine without the
// generator, and small enough to commit next to campaign results.
// Durations are int64 nanoseconds (Go's native resolution) so replays are
// exact; workloads are stored by kernel name and re-resolved on decode, so
// traces stay calibration-independent.
type Trace struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Seed    int64  `json:"seed"`
	// WindowNS is the scenario duration in nanoseconds.
	WindowNS  int64           `json:"window_ns"`
	Scenarios []TraceScenario `json:"scenarios"`
}

// TraceScenario is one scenario's roster.
type TraceScenario struct {
	Apps []TraceApp `json:"apps"`
}

// TraceApp is one instance: its identity, application type and lifetime.
type TraceApp struct {
	ID      string `json:"id"`
	Kernel  string `json:"kernel"`
	Threads int    `json:"threads"`
	StartNS int64  `json:"start_ns"`
	// StopNS is 0 when the instance runs until the scenario ends.
	StopNS int64 `json:"stop_ns"`
}

// Record captures a generated schedule as a trace. cfg supplies the
// provenance header (kind, seed, window); scenarios the timed rosters.
func Record(cfg Config, scenarios []protocol.Scenario) Trace {
	cfg = cfg.WithDefaults()
	t := Trace{
		Version:   TraceVersion,
		Kind:      cfg.Kind.String(),
		Seed:      cfg.Seed,
		WindowNS:  int64(cfg.Window),
		Scenarios: make([]TraceScenario, len(scenarios)),
	}
	for i, s := range scenarios {
		apps := make([]TraceApp, len(s.Apps))
		for j, a := range s.Apps {
			apps[j] = TraceApp{
				ID:      a.ID,
				Kernel:  a.Workload.Name,
				Threads: a.Threads,
				StartNS: int64(a.StartAt),
				StopNS:  int64(a.StopAt),
			}
		}
		t.Scenarios[i] = TraceScenario{Apps: apps}
	}
	return t
}

// Encode renders the trace as indented JSON.
func (t Trace) Encode() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Decode parses and validates a trace. Malformed input yields an error,
// never a panic (the fuzz test pins this), and every accepted trace
// round-trips through Scenarios without further errors.
func Decode(data []byte) (Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return Trace{}, fmt.Errorf("traffic: decoding trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// validate checks the structural invariants replay depends on.
func (t Trace) validate() error {
	if t.Version != TraceVersion {
		return fmt.Errorf("traffic: trace version %d (want %d)", t.Version, TraceVersion)
	}
	if t.WindowNS <= 0 {
		return fmt.Errorf("traffic: non-positive trace window %d", t.WindowNS)
	}
	if len(t.Scenarios) == 0 {
		return fmt.Errorf("traffic: trace holds no scenarios")
	}
	for i, s := range t.Scenarios {
		if len(s.Apps) < 1 {
			return fmt.Errorf("traffic: scenario %d has no instances", i)
		}
		seen := make(map[string]bool, len(s.Apps))
		for j, a := range s.Apps {
			if a.ID == "" {
				return fmt.Errorf("traffic: scenario %d instance %d has an empty ID", i, j)
			}
			if seen[a.ID] {
				return fmt.Errorf("traffic: scenario %d duplicates instance ID %q", i, a.ID)
			}
			seen[a.ID] = true
			if !workload.Known(a.Kernel) {
				return fmt.Errorf("traffic: scenario %d instance %q: unknown kernel %q", i, a.ID, a.Kernel)
			}
			if a.Threads <= 0 {
				return fmt.Errorf("traffic: scenario %d instance %q: thread count %d", i, a.ID, a.Threads)
			}
			if a.StartNS < 0 || a.StartNS >= t.WindowNS {
				return fmt.Errorf("traffic: scenario %d instance %q: start %d outside window %d", i, a.ID, a.StartNS, t.WindowNS)
			}
			if a.StopNS != 0 && a.StopNS <= a.StartNS {
				return fmt.Errorf("traffic: scenario %d instance %q: stop %d not after start %d", i, a.ID, a.StopNS, a.StartNS)
			}
		}
	}
	return nil
}

// Window returns the trace's scenario duration.
func (t Trace) Window() time.Duration { return time.Duration(t.WindowNS) }

// Scenarios rebuilds the protocol scenarios a validated trace records.
// Instance BaseIDs are reconstructed as "<kernel>-<threads>", matching
// Generate, so replayed campaigns share baselines the same way.
func (t Trace) ProtocolScenarios() ([]protocol.Scenario, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	out := make([]protocol.Scenario, len(t.Scenarios))
	for i, s := range t.Scenarios {
		apps := make([]protocol.AppSpec, len(s.Apps))
		for j, a := range s.Apps {
			w, _ := KernelByName(a.Kernel) // validated above
			apps[j] = protocol.AppSpec{
				ID:       a.ID,
				BaseID:   fmt.Sprintf("%s-%d", a.Kernel, a.Threads),
				Workload: w,
				Threads:  a.Threads,
				StartAt:  time.Duration(a.StartNS),
				StopAt:   time.Duration(a.StopNS),
			}
		}
		out[i] = protocol.Scenario{Apps: apps}
	}
	return out, nil
}
