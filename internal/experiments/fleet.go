package experiments

import (
	"fmt"
	"sort"
	"strings"

	"powerdiv/internal/fleet"
	"powerdiv/internal/report"
)

// FleetTable renders the fleet campaign's aggregate error table: one row
// per model family with the fleet-wide error distribution.
func FleetTable(r fleet.Result) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("fleet campaign — %d nodes (%s), %s arrivals, %d scenarios, %d instances, %v windows",
			r.Nodes, fleetClassMix(r), r.Kind, r.Scenarios, r.Instances, r.Window),
		"model", "mean AE", "p50", "p90", "p99", "max AE", "coverage", "worst node",
	)
	for _, m := range r.Models {
		n := m.Scenarios
		t.AddRow(m.Model,
			scoredPercent(m.MeanAE, n), scoredPercent(m.P50, n), scoredPercent(m.P90, n),
			scoredPercent(m.P99, n), scoredPercent(m.MaxAE, n),
			report.Percent(m.MeanCoverage), m.WorstNode)
	}
	return t
}

// fleetClassMix summarizes the node-class histogram as "class×count"
// terms in sorted class order.
func fleetClassMix(r fleet.Result) string {
	names := make([]string, 0, len(r.Classes))
	for name := range r.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s×%d", name, r.Classes[name])
	}
	return strings.Join(parts, " ")
}
