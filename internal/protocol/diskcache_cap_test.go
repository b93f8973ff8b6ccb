package protocol

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"powerdiv/internal/units"
)

// dirRecordBytes sums the sizes of the records under dir.
func dirRecordBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
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
	return total
}

// capKey is the fixture key with a fixed-width suffix, so every record
// the byte-cap tests write has the same size.
func capKey(f diskFixture, i int) string {
	return f.key + "|" + strconv.Itoa(100000+i)
}

// TestDiskCacheStoresUnderCapWalkOnce pins the running byte count: stores
// that never reach the cap walk the directory once, on the first store,
// however many records it then holds.
func TestDiskCacheStoresUnderCapWalkOnce(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.store(capKey(f, i), f.stable, f.b)
	}
	if w := DiskCacheWalks(d); w != 1 {
		t.Fatalf("1000 stores under the cap walked %d times, want 1", w)
	}
	if _, _, w := d.Stats(); w != 1000 {
		t.Fatalf("%d writes counted, want 1000", w)
	}
}

// TestDiskCacheWalksOncePerEighthOfCap stores past a small cap, with
// distinct keys and then with overwrites that inflate the running count,
// and requires at most one walk per cap/8 bytes written, a directory
// within the cap, and the newest record kept.
func TestDiskCacheWalksOncePerEighthOfCap(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	one := int64(len(encodeRecord(capKey(f, 0), f.stable, f.b)))
	limit := 16 * one
	d, err := OpenDiskCache(t.TempDir(), limit)
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for i := 0; i < 200; i++ {
		d.store(capKey(f, i), f.stable, f.b)
		written += one
	}
	for i := 0; i < 100; i++ {
		d.store(capKey(f, 199), f.stable, f.b)
		written += one
	}
	eighth := limit / 8
	if w, most := DiskCacheWalks(d), uint64((written+eighth-1)/eighth); w > most {
		t.Fatalf("%d walks for %d bytes written, want at most %d", w, written, most)
	}
	if got := dirRecordBytes(t, d.dir); got > limit {
		t.Fatalf("directory holds %d bytes, cap %d", got, limit)
	}
	if _, ok := d.load(capKey(f, 199), f.stable, f.b.ID); !ok {
		t.Fatal("newest record evicted")
	}
}

// TestDiskCacheTrimsOverfilledDirectory fills a directory past a cap with
// one cache, then opens a second over it with that cap: its first store
// walks the directory and trims it to the cap.
func TestDiskCacheTrimsOverfilledDirectory(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	one := int64(len(encodeRecord(capKey(f, 0), f.stable, f.b)))
	dir := t.TempDir()
	filler, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		filler.store(capKey(f, i), f.stable, f.b)
	}
	limit := 16 * one
	d, err := OpenDiskCache(dir, limit)
	if err != nil {
		t.Fatal(err)
	}
	d.store(capKey(f, 64), f.stable, f.b)
	if got := dirRecordBytes(t, dir); got > limit {
		t.Fatalf("first store left %d bytes, cap %d", got, limit)
	}
	if w := DiskCacheWalks(d); w != 1 {
		t.Fatalf("first store walked %d times, want 1", w)
	}
}

// TestDiskCacheLoadsDuringEviction loads on 8 goroutines while a writer
// stores past a small cap, so records are written, overwritten and evicted
// under the readers: every hit must be bit-identical to the record its key
// was stored with.
func TestDiskCacheLoadsDuringEviction(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	const keys = 64
	want := make([]diskFixture, keys)
	for i := range want {
		want[i] = f
		want[i].key = capKey(f, i)
		want[i].b.Total += units.Watts(i)
	}
	one := int64(len(want[0].raw()))
	d, err := OpenDiskCache(t.TempDir(), 16*one)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i += 7 {
				w := want[i%keys]
				b, ok := d.load(w.key, w.stable, w.b.ID)
				if !ok {
					continue
				}
				hits.Add(1)
				if !sameBaseline(b, w.b) {
					t.Errorf("key %d loaded %+v, stored %+v", i%keys, b, w.b)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10*keys; i++ {
		w := want[i%keys]
		d.store(w.key, w.stable, w.b)
	}
	stop.Store(true)
	wg.Wait()
	if DiskCacheWalks(d) < 2 {
		t.Fatalf("%d walks: the writer never evicted", DiskCacheWalks(d))
	}
	if h, _, _ := d.Stats(); h == 0 || hits.Load() != int64(h) {
		t.Fatalf("%d hits counted, %d seen by the readers", h, hits.Load())
	}
}

// TestDiskCacheLongRecord round-trips a record longer than load's read
// buffer, which takes the full-read path.
func TestDiskCacheLongRecord(t *testing.T) {
	t.Parallel()
	f := diskTestRun(t)
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{diskReadBytes - len(f.raw()) - 1, diskReadBytes - len(f.raw()), 2 * diskReadBytes} {
		key := f.key + "|" + strings.Repeat("x", n)
		d.store(key, f.stable, f.b)
		got, ok := d.load(key, f.stable, f.b.ID)
		if !ok || !sameBaseline(got, f.b) {
			t.Fatalf("record of %d bytes: loaded %+v (hit %v), stored %+v",
				len(encodeRecord(key, f.stable, f.b)), got, ok, f.b)
		}
	}
}
