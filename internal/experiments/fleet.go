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
		t.AddRow(m.Model,
			report.Percent(m.MeanAE), report.Percent(m.P50), report.Percent(m.P90),
			report.Percent(m.P99), report.Percent(m.MaxAE),
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
