package protocol

import (
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/rng"
)

// RecordKeyLen reports the length of app's phase 1 record key under ctx and
// the buffer capacity baselineCached builds it in, for the external tests.
func RecordKeyLen(ctx Context, app AppSpec) (n, buf int) {
	app = app.baselineSpec()
	cfg := ctx.Machine
	cfg.Seed = rng.Derive(ctx.Seed, "solo", app.ID)
	kb := appendRunKey(make([]byte, 0, recordKeyBytes), cfg, []machine.Proc{app.proc()}, ctx.RunFor)
	return len(appendWindowKey(kb, ctx.StableWindow)), recordKeyBytes
}

// FullRunBaseline is the test-local whole-run phase 1 reference
// (fullRunBaseline), for the external tests.
func FullRunBaseline(ctx Context, app AppSpec) (division.Baseline, error) {
	return fullRunBaseline(ctx, app)
}

// DiskCacheWalks reports how many directory walks d has made, for the
// byte-cap tests.
func DiskCacheWalks(d *DiskCache) uint64 { return d.walks.Load() }
