package protocol_test

import (
	"context"
	"math"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/experiments"
	"powerdiv/internal/protocol"
	"powerdiv/internal/traffic"
	"powerdiv/internal/workload"
)

// tierCampaigns returns the phase 1 app lists the baseline tier serves in
// practice, per machine spec: every app type of a seed-1 mixed traffic job
// (the campaign service's default job shape) and of the lab pair campaign.
func tierCampaigns(t *testing.T, ctx protocol.Context) map[string][]protocol.AppSpec {
	t.Helper()
	scenarios, err := traffic.Generate(experiments.TrafficConfig(ctx, traffic.Mixed, 48, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := protocol.StressPairs(workload.StressNames(), protocol.SizesFor(ctx.Machine))
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]protocol.AppSpec{
		"traffic-mixed": protocol.BaselineAppsOf(scenarios),
		"lab-pairs":     protocol.BaselineAppsOf(pairs),
	}
}

// TestBaselineTiersAgree reaches every baseline four ways — a memory hit,
// a disk hit in a fresh scope, no cache scope at all, and the test-local
// full-run reference — and requires Float64bits equality. The
// fresh scope over the primed directory must be served entirely by disk:
// one disk hit per app and no write.
func TestBaselineTiersAgree(t *testing.T) {
	t.Parallel()
	for _, spec := range cpumodel.Specs() {
		ctx := experiments.LabContext(spec, 1)
		for name, apps := range tierCampaigns(t, ctx) {
			t.Run(spec.Name+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				measure := func(c protocol.Context) []division.Baseline {
					t.Helper()
					bs, err := protocol.Measure(context.Background(), c, apps)
					if err != nil {
						t.Fatal(err)
					}
					out := make([]division.Baseline, len(apps))
					for i, app := range apps {
						out[i] = bs[app.ID]
					}
					return out
				}
				scoped := func() (protocol.Context, *protocol.CacheScope) {
					t.Helper()
					disk, err := protocol.OpenDiskCache(dir, 0)
					if err != nil {
						t.Fatal(err)
					}
					c := ctx
					c.Cache = protocol.NewCacheScope(0)
					c.Cache.AttachDisk(disk)
					return c, c.Cache
				}

				c, scope := scoped()
				measure(c) // computes and writes every record
				memHit := measure(c)
				if st := scope.Stats(); st.Hits != uint64(len(apps)) || st.SummaryEntries != len(apps) {
					t.Fatalf("second pass over %d apps: %+v", len(apps), st)
				}

				c, scope = scoped()
				diskHit := measure(c)
				if st := scope.Stats(); st.DiskHits != uint64(len(apps)) || st.DiskWrites != 0 {
					t.Fatalf("fresh scope over %d primed apps: %d disk hits, %d writes",
						len(apps), st.DiskHits, st.DiskWrites)
				}

				c.Cache = nil
				unmemo := measure(c)

				for i, app := range apps {
					full, err := protocol.FullRunBaseline(ctx, app)
					if err != nil {
						t.Fatal(err)
					}
					for way, got := range map[string]division.Baseline{
						"memory hit": memHit[i], "disk hit": diskHit[i], "no scope": unmemo[i],
					} {
						if !sameBaselineBits(got, full) {
							t.Errorf("%s: %s %+v, full run %+v", app.ID, way, got, full)
						}
					}
				}
			})
		}
	}
}

// TestRecordKeyFitsBuffer holds the baseline tier's key buffer to every
// record key the campaigns build, in both contexts on both machines: a key
// that outgrows it moves the buffer to the heap on every phase 1 lookup.
func TestRecordKeyFitsBuffer(t *testing.T) {
	t.Parallel()
	longest := 0
	for _, spec := range cpumodel.Specs() {
		for _, ctx := range []protocol.Context{experiments.LabContext(spec, 1), experiments.ProdContext(spec, 1)} {
			for name, apps := range tierCampaigns(t, ctx) {
				for _, app := range apps {
					n, buf := protocol.RecordKeyLen(ctx, app)
					if n > buf {
						t.Errorf("%s/%s/%s: record key %d bytes, buffer %d", spec.Name, name, app.ID, n, buf)
					}
					longest = max(longest, n)
				}
			}
		}
	}
	t.Logf("longest record key: %d bytes", longest)
}

func sameBaselineBits(a, b division.Baseline) bool {
	return a.ID == b.ID &&
		math.Float64bits(float64(a.Total)) == math.Float64bits(float64(b.Total)) &&
		math.Float64bits(float64(a.Residual)) == math.Float64bits(float64(b.Residual)) &&
		math.Float64bits(a.Cores) == math.Float64bits(b.Cores)
}
