package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/trace"
)

// goldenPath is the frozen corpus: one "name digest" line per artefact,
// sorted by name.
var goldenPath = filepath.Join("testdata", "golden.txt")

// goldenDigest is FNV-64a over the result's %+v rendering. %+v prints every
// float in its shortest round-trip form and sorts map keys, so the digest
// pins every result bit. After goldenValue no digested value holds a
// pointer below its top level (%+v prints a top-level struct pointer as
// &{...}), so the rendering carries no addresses.
func goldenDigest(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenValue replaces the pointers a result holds with the values they
// point to, so the digest covers values, not addresses.
func goldenValue(v any) any {
	switch r := v.(type) {
	case ContextResult:
		return goldenContext(r)
	case EnergyDivisionResult:
		return goldenEnergy(r)
	case []AppReference:
		return goldenReferences(r)
	}
	return v
}

// goldenContext, goldenEnergy and goldenReferences replace the results'
// *trace.Series fields with their samples, so the digest covers values,
// not addresses.
func goldenContext(r ContextResult) any {
	est := map[string][]trace.Sample{}
	for id, s := range r.Estimates {
		est[id] = s.Samples()
	}
	return struct {
		Machine, Model string
		Estimates      map[string][]trace.Sample
		MachinePower   []trace.Sample
		Windows        []time.Duration
	}{r.Machine, r.Model, est, r.MachinePower.Samples(), r.Windows}
}

func goldenEnergy(r EnergyDivisionResult) any {
	flat := r
	flat.Est0, flat.Est1, flat.PairMachine = nil, nil, nil
	return struct {
		Result                  EnergyDivisionResult
		Est0, Est1, PairMachine []trace.Sample
	}{flat, r.Est0.Samples(), r.Est1.Samples(), r.PairMachine.Samples()}
}

func goldenReferences(refs []AppReference) any {
	type flat struct {
		Ref   AppReference
		Trace []trace.Sample
	}
	out := make([]flat, len(refs))
	for i, r := range refs {
		out[i] = flat{r, r.Trace.Samples()}
		out[i].Ref.Trace = nil
	}
	return out
}

// TestGoldenCorpus recomputes every artefact of the registry at seed 1
// and compares its digest with the frozen corpus, which must hold exactly
// one line per artefact. There is no update flag: on a mismatch the test
// logs the recomputed file, so re-baselining is a deliberate, reviewable
// hand edit.
func TestGoldenCorpus(t *testing.T) {
	t.Parallel()
	arts := Artefacts()
	sort.Slice(arts, func(i, j int) bool { return arts[i].Name < arts[j].Name })
	var b strings.Builder
	for i, a := range arts {
		if i > 0 && a.Name == arts[i-1].Name {
			t.Errorf("two artefacts named %s", a.Name)
		}
		v, err := a.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", a.Name, goldenDigest(goldenValue(v)))
		// Each table needs its own CSV file name within the artefact.
		seen := map[string]bool{}
		for _, tab := range a.Tables(v) {
			if seen[tab.Name] {
				t.Errorf("%s: two tables named %q", a.Name, tab.Name)
			}
			seen[tab.Name] = true
		}
	}
	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus: %v\nrecomputed:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("golden corpus mismatch\nwant:\n%s\ngot:\n%s", want, got)
	}
}
