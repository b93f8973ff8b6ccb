package protocol

import (
	"time"

	"powerdiv/internal/obs"
)

// Campaign-engine metrics. All writes are no-ops while the obs registry is
// disabled (the default), so the instrumented paths keep their benchmark
// numbers; see internal/obs and DESIGN.md §7.
var (
	obsScenariosStarted = obs.NewCounter("powerdiv_protocol_scenarios_started_total",
		"Scenario evaluations begun (phase 2+3 of the protocol).")
	obsScenariosCompleted = obs.NewCounter("powerdiv_protocol_scenarios_completed_total",
		"Scenario evaluations finished without error.")
	obsCacheHits = obs.NewCounter("powerdiv_protocol_cache_hits_total",
		"Phase 1 baseline-record hits in a scope's memory tier, summed over every scope.")
	obsCacheMisses = obs.NewCounter("powerdiv_protocol_cache_misses_total",
		"Phase 1 baseline-record misses in a scope's memory tier, summed over every scope.")
	obsCacheEvictions = obs.NewCounter("powerdiv_protocol_cache_evictions_total",
		"Phase 1 baseline records evicted from a scope's byte-capped memory tier (FIFO).")
	obsDiskHits = obs.NewCounter("powerdiv_protocol_disk_cache_hits_total",
		"Phase 1 baseline records loaded from the persistent cache (valid file found for a memory miss).")
	obsDiskMisses = obs.NewCounter("powerdiv_protocol_disk_cache_misses_total",
		"Persistent cache misses for a phase 1 baseline record (absent, corrupt, or stale file).")
	obsDiskWrites = obs.NewCounter("powerdiv_protocol_disk_cache_writes_total",
		"Phase 1 baseline records written to the persistent cache.")
	obsScenarioSeconds = obs.NewHistogram("powerdiv_protocol_scenario_seconds",
		"Wall-clock latency of one scenario evaluation (simulate + replay + score).",
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)
	obsWorkersBusy = obs.NewGauge("powerdiv_protocol_workers_busy",
		"Worker-pool occupancy: tasks currently executing in forEachIndexed.")
)

// observeScenario marks one scenario evaluation started and returns the
// completion hook: call it on success to count the completion and record
// the latency. When the registry is disabled both halves reduce to an
// atomic load each — no clock reads, no allocation beyond the closure.
var obsNoop = func() {}

func observeScenario() func() {
	obsScenariosStarted.Inc()
	if !obs.Enabled() {
		return obsNoop
	}
	start := time.Now()
	return func() {
		obsScenariosCompleted.Inc()
		obsScenarioSeconds.Observe(time.Since(start).Seconds())
	}
}
