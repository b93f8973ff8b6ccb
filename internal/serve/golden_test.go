package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"testing"

	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
)

// TestServeRowsPinned freezes the NDJSON output of one seed-fixed traffic
// job and one seed-fixed fleet job: FNV-64a over every row line exactly as
// the stream writes it, followed by the terminal line's summary. Rows and
// summaries carry results only, no timing, so the digest is a pure
// function of the spec. There is no update flag: on a mismatch the test
// logs the recomputed digest, so re-baselining is a deliberate hand edit.
func TestServeRowsPinned(t *testing.T) {
	t.Parallel()
	fleetSpec := SubmitRequest{Kind: KindFleet, Seed: 5, Nodes: 3, WindowMS: 3000, RunForMS: 3000, StableWindowMS: 1500}
	for _, tc := range []struct {
		name string
		spec SubmitRequest
		want string
	}{
		{"traffic", testSpec(3), "121e4617f4169408"},
		{"fleet", fleetSpec, "995fa46c2c88685e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
			sr := submitJob(t, hs.URL, tc.spec)
			if got := streamDigest(t, hs.URL, sr.ID); got != tc.want {
				t.Errorf("%s job digest %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// streamDigest reads a job's full result stream and digests its row lines
// verbatim plus the terminal summary re-encoded. It fails unless the job
// ended done.
func streamDigest(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	h := fnv.New64a()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	rows := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var term resultTerminal
		if err := json.Unmarshal(line, &term); err != nil {
			t.Fatalf("stream line is not JSON: %q: %v", line, err)
		}
		if !term.Done {
			h.Write(line)
			h.Write([]byte{'\n'})
			rows++
			continue
		}
		if term.State != StateDone || term.Rows != rows {
			t.Fatalf("job ended %s with %d rows (%d streamed): %s", term.State, term.Rows, rows, term.Error)
		}
		sum, err := json.Marshal(term.Summary)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(sum)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("stream ended without a terminal line")
	return ""
}

// TestServeFleetJobUsesJobScope pins that a fleet job memoizes in the cache
// scope the server opens for it, like every other job kind: the process
// default scope sees no lookup and gains no entry, while the registry's
// cache counters, summed over every scope, still record the job's
// lookups. It reads a process-wide scope and enables the registry, so it
// stays serial.
func TestServeFleetJobUsesJobScope(t *testing.T) {
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(false) })
	lookups := func() float64 {
		return obs.Default().Get("powerdiv_protocol_cache_hits_total").Snapshot().Value +
			obs.Default().Get("powerdiv_protocol_cache_misses_total").Snapshot().Value
	}
	before, lookupsBefore := protocol.DefaultScope().Stats(), lookups()

	_, hs := newTestServer(t, Options{SnapshotDir: t.TempDir()})
	sr := submitJob(t, hs.URL, SubmitRequest{Kind: KindFleet, Seed: 5, Nodes: 3, WindowMS: 3000, RunForMS: 3000, StableWindowMS: 1500})
	if _, term := fetchResults(t, hs.URL, sr.ID); term.State != StateDone {
		t.Fatalf("fleet job ended %s (%s)", term.State, term.Error)
	}

	after := protocol.DefaultScope().Stats()
	if after.Lookups != before.Lookups || after.SummaryEntries != before.SummaryEntries {
		t.Errorf("fleet job memoized in the default scope: %d lookups and %d entries before, %d and %d after",
			before.Lookups, before.SummaryEntries, after.Lookups, after.SummaryEntries)
	}
	if lookups() == lookupsBefore {
		t.Error("fleet job recorded no cache lookups; test is vacuous")
	}
}
