package protocol

import (
	"fmt"
	"hash/fnv"
	"time"

	"powerdiv/internal/machine"
)

// CampaignKind names the seed-derivation family a campaign's scenarios
// simulate under — the label EvaluateModelsStreaming ("pair") or
// EvaluateTrafficStreaming ("traffic") folds into each scenario's config
// seed. Fingerprints must use the same label as the evaluator that will run
// the scenarios, or they address different simulations.
type CampaignKind string

const (
	// PairCampaign is the static pair/combination campaign family
	// (EvaluatePair*, EvaluateCampaign, EvaluateModelsStreaming*,
	// EvaluateScenarioStreaming).
	PairCampaign CampaignKind = "pair"
	// TrafficCampaign is the timed-roster campaign family
	// (EvaluateTrafficStreaming*, EvaluateTrafficScenarioStreaming).
	TrafficCampaign CampaignKind = "traffic"
)

// CampaignFingerprint content-addresses a campaign's phase 2 simulations:
// an FNV-1a digest over every scenario's run-memoization key — the exact
// fingerprint the cache files the simulated run under (machine calibration,
// performance settings, derived seed, full process list, duration) — plus
// the scoring window. Two campaigns with equal fingerprints simulate
// byte-identical runs and score them over the same stable window, so
// per-scenario results computed under one are valid under the other. The
// campaign service uses this to bind snapshots to submissions: a resumed
// job replays completed rows only when the fingerprints match.
func CampaignFingerprint(ctx Context, scenarios []Scenario, kind CampaignKind, runFor time.Duration) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "kind:%s|stable:%d|n:%d", kind, int64(ctx.StableWindow), len(scenarios))
	// Each scenario hashes a zero byte, then its runKey. The machine part
	// is the same for all of them, so it is built once; FNV-1a streams, so
	// writing it and the scenario's tail separately hashes the same bytes.
	machineKey := appendMachineKey([]byte{0}, ctx.Machine)
	var key []byte
	var procs []machine.Proc
	for _, s := range scenarios {
		procs = procs[:0]
		for _, a := range s.Apps {
			procs = append(procs, a.proc())
		}
		h.Write(machineKey)
		key = appendRunTail(key[:0], deriveSeed(ctx.Seed, string(kind), s.Label()), runFor, procs)
		h.Write(key)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
