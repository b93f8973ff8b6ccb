package machine

import "powerdiv/internal/obs"

// Simulator metrics. The tick loop never touches an atomic: each run
// accumulates into plain fields on its private tickScratch and flushes three
// counter updates per run, so the instrumented loop keeps the allocs/op and
// ns/op recorded in BENCH_campaign.json whether or not the registry is
// enabled.
var (
	obsRuns = obs.NewCounter("powerdiv_machine_runs_total",
		"Completed simulator runs.")
	obsTicksSimulated = obs.NewCounter("powerdiv_machine_ticks_simulated_total",
		"Simulation ticks stepped across all runs.")
	obsScratchReused = obs.NewCounter("powerdiv_machine_scratch_reused_ticks_total",
		"Ticks that reused every fixed-size scratch buffer (no growth).")
	obsSegments = obs.NewCounter("powerdiv_machine_segments_total",
		"Constant segments evaluated across all runs (one stepTick each; "+
			"equals ticks simulated on the per-tick fallback).")
)
