package protocol

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
)

// The run-key encoding is persistent state: CampaignFingerprint binds the
// campaign service's snapshots to submissions, and DiskCache names its
// files by a hash of the key. A daemon restarted on a new build must still
// resume the snapshots and read the disk files an older build wrote, so
// any change to the encoding is a compatibility break. These pins freeze
// the encoding for a fixed campaign; the values were recorded from the
// string-building runKey that earlier builds shipped and, like the golden
// corpus, have no update flag — a mismatch means the encoding changed, not
// that the pin is stale.

const (
	pinPairFingerprint    = "f7c0213366cd0f60"
	pinTrafficFingerprint = "55dd55d8977a4beb"
)

var pinDiskFiles = []string{"b314cdd6870e5dd8.pds", "ea95d45a5bb782f.pds"}

// keyPinCampaign is a fixed two-app campaign whose apps exercise every
// field the run key encodes: a quota, pins, a scripted start and stop, and
// a roster given out of ID order (the key sorts it).
func keyPinCampaign(t *testing.T) (Context, []Scenario) {
	t.Helper()
	ctx := goldenContext(cpumodel.SmallIntel(), true)
	a, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	a.CPUQuota = 1.5
	a.Pinned = []int{0, 3}
	a.StartAt = 750 * time.Millisecond
	a.StopAt = 9 * time.Second
	b, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, []Scenario{{Apps: []AppSpec{a, b}}}
}

// TestRunKeyEncodingPinned pins the campaign fingerprints of both campaign
// kinds and the disk cache's file names for the campaign's phase 1.
func TestRunKeyEncodingPinned(t *testing.T) {
	t.Parallel()
	ctx, scenarios := keyPinCampaign(t)
	if got := CampaignFingerprint(ctx, scenarios, PairCampaign, ctx.RunFor); got != pinPairFingerprint {
		t.Errorf("pair fingerprint %s, pinned %s", got, pinPairFingerprint)
	}
	if got := CampaignFingerprint(ctx, scenarios, TrafficCampaign, ctx.RunFor); got != pinTrafficFingerprint {
		t.Errorf("traffic fingerprint %s, pinned %s", got, pinTrafficFingerprint)
	}

	dir := t.TempDir()
	disk, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Cache = NewCacheScope(0)
	ctx.Cache.AttachDisk(disk)
	if _, err := Measure(context.Background(), ctx, AppsOf(scenarios)); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.pds"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range matches {
		names = append(names, filepath.Base(m))
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(pinDiskFiles, ",") {
		t.Errorf("disk cache files %q, pinned %q", names, pinDiskFiles)
	}

	// A fresh scope over the same directory must bind every file.
	ctx.Cache = NewCacheScope(0)
	ctx.Cache.AttachDisk(disk)
	if _, err := Measure(context.Background(), ctx, AppsOf(scenarios)); err != nil {
		t.Fatal(err)
	}
	if st := ctx.Cache.Stats(); st.DiskHits != uint64(len(names)) || st.DiskWrites != uint64(len(names)) {
		t.Errorf("second phase 1 over %d files: %+v", len(names), st)
	}
}
