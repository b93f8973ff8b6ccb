package protocol

import (
	"fmt"
	"hash/fnv"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/rng"
)

// CampaignKind names a campaign's scenario family: how Evaluate seeds and
// labels each scenario, and how it scores it. The kind is folded into every
// scenario's config seed, so fingerprints must use the kind of the
// campaign that will run the scenarios, or they address different
// simulations.
type CampaignKind string

const (
	// PairCampaign is the static pair/combination family: each scenario is
	// scored over its least-extreme stable window against phase 1
	// objectives.
	PairCampaign CampaignKind = "pair"
	// TrafficCampaign is the timed-roster family: every busy tick is
	// scored against the instances present.
	TrafficCampaign CampaignKind = "traffic"
	// TimelineCampaign scores dynamic scenarios (the paper's Fig 11
	// arrivals and departures) like traffic, each labelled
	// "timeline: <IDs in input order>".
	TimelineCampaign CampaignKind = "timeline"
)

// label is the name a scenario's seeds derive from under kind k.
func (k CampaignKind) label(s Scenario) string {
	if k != TimelineCampaign {
		return s.Label()
	}
	label := "timeline:"
	for _, a := range s.Apps {
		label += " " + a.ID
	}
	return label
}

// CampaignFingerprint content-addresses a campaign's phase 2 simulations:
// an FNV-1a digest over every scenario's run key — the same encoding the
// baseline tier keys solo runs by (machine calibration, performance
// settings, derived seed, full process list, duration) — plus the scoring
// window. Two campaigns with equal fingerprints simulate
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
		key = appendRunTail(key[:0], rng.Derive(ctx.Seed, string(kind), kind.label(s)), runFor, procs)
		h.Write(key)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
