package protocol

import (
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/rng"
)

// diskFixture is one real solo-run baseline record plus the runKey, stable
// window and app ID the caches would file it under — the fixture every
// disk-cache test round-trips.
type diskFixture struct {
	key    string
	stable time.Duration
	b      division.Baseline
}

func (f diskFixture) raw() []byte { return encodeRecord(f.key, f.stable, f.b) }

func diskTestRun(t *testing.T) diskFixture {
	t.Helper()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ctx.Machine
	cfg.Seed = rng.Derive(ctx.Seed, "solo", app.ID)
	procs := []machine.Proc{app.proc()}
	b, err := soloBaseline(cfg, procs, ctx.RunFor, ctx.StableWindow, app.ID)
	if err != nil {
		t.Fatal(err)
	}
	return diskFixture{key: runKey(cfg, procs, ctx.RunFor), stable: ctx.StableWindow, b: b}
}

// sameBaseline reports whether two baselines agree on the ID and on every
// float's bit pattern.
func sameBaseline(a, b division.Baseline) bool {
	return a.ID == b.ID &&
		math.Float64bits(float64(a.Total)) == math.Float64bits(float64(b.Total)) &&
		math.Float64bits(float64(a.Residual)) == math.Float64bits(float64(b.Residual)) &&
		math.Float64bits(a.Cores) == math.Float64bits(b.Cores)
}

// TestDiskCacheRoundTrip pins the persistent tier's exactness: a stored
// record loads back with every float bit-identical, so a warm-from-disk
// campaign cannot diverge from a cold one.
func TestDiskCacheRoundTrip(t *testing.T) {
	t.Parallel()
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := diskTestRun(t)
	if _, ok := d.load(f.key, f.stable, f.b.ID); ok {
		t.Fatal("load before store hit")
	}
	d.store(f.key, f.stable, f.b)
	got, ok := d.load(f.key, f.stable, f.b.ID)
	if !ok {
		t.Fatal("load after store missed")
	}
	if !sameBaseline(got, f.b) {
		t.Fatalf("round trip %+v, stored %+v", got, f.b)
	}
	if h, m, w := d.Stats(); h != 1 || m != 1 || w != 1 {
		t.Fatalf("stats %d/%d/%d, want 1 hit, 1 miss, 1 write", h, m, w)
	}
}

// TestDiskCacheRejectsDamage pins self-healing over a table of damage
// modes: truncation at every structural boundary, a flipped byte in each
// region (magic, version, key echo, payload, checksum), and an empty file.
// Every one must read as a miss — never as wrong data — and the damaged
// file must be deleted so it is not re-parsed forever.
func TestDiskCacheRejectsDamage(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	raw := f.raw()
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[at] ^= 0x40
			return c
		}
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return append([]byte(nil), b[:6]...) }},
		{"truncated-mid-payload", func(b []byte) []byte { return append([]byte(nil), b[:len(b)/2]...) }},
		{"truncated-no-checksum", func(b []byte) []byte { return append([]byte(nil), b[:len(b)-8]...) }},
		{"truncated-one-byte", func(b []byte) []byte { return append([]byte(nil), b[:len(b)-1]...) }},
		{"flip-magic", flip(0)},
		{"flip-version", flip(4)},
		{"flip-key-echo", flip(len(diskMagic) + 4 + 4)},
		{"flip-payload", flip(len(raw) - 8 - 12)},
		{"flip-checksum", flip(len(raw) - 1)},
		{"extra-trailing-bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDiskCache(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			p := d.path(f.key)
			if err := os.WriteFile(p, tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.load(f.key, f.stable, f.b.ID); ok {
				t.Fatal("damaged entry loaded as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("damaged entry not deleted: %v", err)
			}
			// A fresh store over the healed slot must work again.
			d.store(f.key, f.stable, f.b)
			if _, ok := d.load(f.key, f.stable, f.b.ID); !ok {
				t.Fatal("store after healing missed")
			}
		})
	}
}

// TestDiskCacheVersionMismatch rewrites an entry's version field (with a
// recomputed checksum, so only the version differs) and requires a miss:
// a format bump must invalidate old files rather than misread them.
func TestDiskCacheVersionMismatch(t *testing.T) {
	t.Parallel()
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := diskTestRun(t)
	raw := f.raw()
	body := append([]byte(nil), raw[:len(raw)-8]...)
	body[len(diskMagic)]++ // version 2 -> 3, little-endian low byte
	withSum := appendChecksum(body)
	if err := os.WriteFile(d.path(f.key), withSum, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.load(f.key, f.stable, f.b.ID); ok {
		t.Fatal("future-version entry loaded as a hit")
	}
	if _, err := os.Stat(d.path(f.key)); !os.IsNotExist(err) {
		t.Fatal("future-version entry not deleted")
	}
}

// TestDiskCacheKeyMismatch files one key's entry under another key's path
// (what a hash collision or a renamed file would look like) and requires
// the key echo to reject it.
func TestDiskCacheKeyMismatch(t *testing.T) {
	t.Parallel()
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := diskTestRun(t)
	d.store(f.key, f.stable, f.b)
	other := f.key + "|other"
	if err := os.Rename(d.path(f.key), d.path(other)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.load(other, f.stable, f.b.ID); ok {
		t.Fatal("entry with mismatched key echo loaded as a hit")
	}
}

// TestDiskCacheEviction stores entries past a tiny byte cap and requires
// the oldest-modified files to be removed first while the newest survives.
func TestDiskCacheEviction(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	// The |x suffixes add two bytes to each key's echo.
	one := int64(len(f.raw())) + 2
	d, err := OpenDiskCache(t.TempDir(), 2*one+one/2) // room for two entries
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{f.key + "|a", f.key + "|b", f.key + "|c"}
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		d.store(k, f.stable, f.b)
		// Pin distinct, increasing mtimes so eviction order is deterministic
		// even on coarse filesystem clocks.
		if err := os.Chtimes(d.path(k), base, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	d.store(f.key+"|d", f.stable, f.b) // pushes past the cap; |a and |b are oldest
	if _, err := os.Stat(d.path(keys[0])); !os.IsNotExist(err) {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := d.load(f.key+"|d", f.stable, f.b.ID); !ok {
		t.Fatal("newest entry evicted")
	}
	var total int64
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".pds" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 2*one+one/2 {
		t.Fatalf("directory %d bytes past the %d cap", total, 2*one+one/2)
	}
}

// appendChecksum re-signs a hand-mangled body with the trailing FNV-64a the
// decoder verifies first.
func appendChecksum(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return appendU64(body, h.Sum64())
}

// TestDiskCacheWarmBitIdentical is the end-to-end guarantee: a campaign
// whose phase-1 summaries come from disk (a fresh cache scope over a disk
// tier primed by a prior campaign) produces error tables bit-identical to a
// fully cold one, and actually reads the disk while doing so.
func TestDiskCacheWarmBitIdentical(t *testing.T) {
	t.Parallel()
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	a0, err := StressApp("fibonacci", 1)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := StressApp("matrixprod", 2)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := StressApp("int64", 1)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{Apps: []AppSpec{a0, a1}},
		{Apps: []AppSpec{a1, a2}},
	}
	spec := cpumodel.SmallIntel()
	factories := func(baselines map[string]division.Baseline) []models.Factory {
		return goldenFactories(baselines, spec)
	}
	run := func(d *DiskCache) map[string][]Evaluation {
		t.Helper()
		c := ctx
		c.Cache = NewCacheScope(0)
		c.Cache.AttachDisk(d)
		got, err := EvaluateModelsStreaming(c, scenarios, factories, ObjectiveActive, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	want := run(nil) // fully cold: no disk tier attached

	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	run(d) // primes the disk tier
	if _, _, w := d.Stats(); w == 0 {
		t.Fatal("priming campaign wrote nothing to disk")
	}
	got := run(d) // a fresh scope again: phase 1 loads from disk
	if h, _, _ := d.Stats(); h == 0 {
		t.Fatal("warm campaign never hit the disk tier")
	}
	if len(got) != len(want) {
		t.Fatalf("%d models warm, %d cold", len(got), len(want))
	}
	for name, wantEvs := range want {
		gotEvs, ok := got[name]
		if !ok || len(gotEvs) != len(wantEvs) {
			t.Fatalf("model %s missing or wrong length warm", name)
		}
		for i := range wantEvs {
			compareStreamingEvaluations(t, name, wantEvs[i], gotEvs[i])
		}
	}
}

// TestDiskCacheRecomputes is "the right answer or a recompute" for the
// version-2 tier: each file below, written at a record's path, must read as
// a miss through phase 1, recompute a Float64bits-identical baseline, and
// be overwritten by a valid record that the next fresh scope hits.
func TestDiskCacheRecomputes(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := f.raw()
	// v1 stored the whole solo-run digest after the same magic and key
	// echo; the reader must stop at its version field.
	v1 := append([]byte(diskMagic), 1, 0, 0, 0)
	v1 = appendStr(v1, f.key)
	v1 = append(v1, make([]byte, 96)...)
	v1 = appendChecksum(v1)
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	cases := map[string][]byte{
		"v1-summary":   v1,
		"truncated":    raw[:len(raw)-5],
		"bit-flipped":  flipped,
		"key-mismatch": encodeRecord(f.key+"|collision", f.stable, f.b),
		"other-window": encodeRecord(f.key, f.stable+time.Second, f.b),
	}
	for name, file := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			phase1 := func() (division.Baseline, MemoStats) {
				t.Helper()
				d, err := OpenDiskCache(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				c := ctx
				c.Cache = NewCacheScope(0)
				c.Cache.AttachDisk(d)
				b, err := measureOne(c, app)
				if err != nil {
					t.Fatal(err)
				}
				return b, c.Cache.Stats()
			}
			if err := os.WriteFile((&DiskCache{dir: dir}).path(f.key), file, 0o644); err != nil {
				t.Fatal(err)
			}
			b, st := phase1()
			if !sameBaseline(b, f.b) {
				t.Fatalf("recomputed %+v, want %+v", b, f.b)
			}
			if st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskWrites != 1 {
				t.Fatalf("over the bad file: %d hits, %d misses, %d writes; want a miss and a rewrite",
					st.DiskHits, st.DiskMisses, st.DiskWrites)
			}
			b, st = phase1()
			if !sameBaseline(b, f.b) || st.DiskHits != 1 || st.DiskWrites != 0 {
				t.Fatalf("after the rewrite: %+v, %d hits, %d writes", b, st.DiskHits, st.DiskWrites)
			}
		})
	}
}

// TestDiskCacheStoreDegrades pins the silent failure of a store that cannot
// write: phase 1 still returns the right baseline, nothing panics, and no
// write is counted.
func TestDiskCacheStoreDegrades(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	ctx := goldenContext(cpumodel.SmallIntel(), false)
	app, err := StressApp("fibonacci", 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, breakDir := range map[string]func(t *testing.T, dir string){
		"read-only-dir": func(t *testing.T, dir string) {
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o755) })
			if probe, err := os.CreateTemp(dir, "probe-*"); err == nil {
				probe.Close()
				os.Remove(probe.Name())
				t.Skip("directory permissions are not enforced for this user")
			}
		},
		"dir-replaced-by-file": func(t *testing.T, dir string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			d, err := OpenDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			breakDir(t, dir)
			c := ctx
			c.Cache = NewCacheScope(0)
			c.Cache.AttachDisk(d)
			b, err := measureOne(c, app)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBaseline(b, f.b) {
				t.Fatalf("baseline %+v, want %+v", b, f.b)
			}
			if _, _, w := d.Stats(); w != 0 {
				t.Fatalf("%d writes counted into an unwritable directory", w)
			}
		})
	}
}
