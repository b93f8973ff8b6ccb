package powerdiv_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"powerdiv/internal/experiments"
	_ "powerdiv/internal/livemeter"
	_ "powerdiv/internal/machine"
	"powerdiv/internal/obs"
	_ "powerdiv/internal/protocol"
	_ "powerdiv/internal/serve"
)

// artefactCite matches a document's citation of a registry artefact; the
// placeholder `BenchmarkArtefact/<name>` cites none.
var artefactCite = regexp.MustCompile("`BenchmarkArtefact/([^`<][^`]*)`")

// TestDocsCiteArtefacts keeps EXPERIMENTS.md and DESIGN.md in step with
// experiments.Artefacts(): every `BenchmarkArtefact/<name>` either file
// cites names a registry entry, and EXPERIMENTS.md cites every entry.
func TestDocsCiteArtefacts(t *testing.T) {
	names := map[string]bool{}
	for _, a := range experiments.Artefacts() {
		names[a.Name] = true
	}
	cited := map[string]map[string]bool{}
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited[doc] = map[string]bool{}
		for _, m := range artefactCite.FindAllStringSubmatch(string(text), -1) {
			cited[doc][m[1]] = true
			if !names[m[1]] {
				t.Errorf("%s cites BenchmarkArtefact/%s, which is not in experiments.Artefacts()", doc, m[1])
			}
		}
	}
	for name := range names {
		if !cited["EXPERIMENTS.md"][name] {
			t.Errorf("EXPERIMENTS.md never cites artefact %s", name)
		}
	}
}

// metricName matches a metric name, or a family of them with one
// {a,b,...} alternation, in backquotes.
var metricName = regexp.MustCompile("`(powerdiv_[a-z_]*)(?:\\{([a-z_,]+)\\}([a-z_]*))?`")

// TestMetricCatalog keeps DESIGN.md §7's metric table in step with the
// registry: every metric the instrumented packages register is listed,
// and every listed name is registered.
func TestMetricCatalog(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(text)
	start := strings.Index(section, "## 7. Observability")
	if start < 0 {
		t.Fatal("DESIGN.md has no §7")
	}
	section = section[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	documented := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(section, -1) {
		if m[2] == "" {
			documented[m[1]] = true
			continue
		}
		for _, alt := range strings.Split(m[2], ",") {
			documented[m[1]+alt+m[3]] = true
		}
	}
	registered := map[string]bool{}
	for _, s := range obs.Default().Snapshots() {
		registered[s.Name] = true
		if !documented[s.Name] {
			t.Errorf("metric %s is registered but missing from DESIGN.md §7", s.Name)
		}
	}
	var stale []string
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("DESIGN.md §7 lists %s, which no instrumented package registers", name)
	}
}
