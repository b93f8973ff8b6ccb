package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/units"
)

// DiskCache is the persistent tier under the in-memory baseline tier:
// phase 1 baseline records, content-addressed by the solo run's runKey,
// survive process restarts and outlive the per-job cache scopes of the
// campaign service. A cold scope (a fresh benchmark iteration, a new
// service job, a re-invoked CLI) reads phase 1 from disk instead of
// re-simulating every baseline.
//
// Layout: one file per solo run under dir, named by the FNV-64a hash of
// the full runKey. Each file (diskVersion 2) carries a magic+version
// header, an echo of the full runKey (hash collisions and stale keys read
// as misses, never as wrong data), the stable window the baseline was
// extracted over, the app ID, the baseline's three floats as IEEE-754 bit
// patterns, and a trailing FNV-64a checksum of everything before it. A
// record for another stable window is a miss, and the fresh compute
// overwrites it. Files are written to a temp name and renamed into place —
// the same atomicity idiom as the campaign service's snapshots — so readers
// never observe a partial write. Any file that fails validation is deleted
// and treated as a miss: the cache self-heals from truncation, corruption,
// or format changes at the cost of one re-simulation.
//
// The record is the output of the simulator, the stable-window search and
// the baseline extraction; bump diskVersion on any change to one of them,
// so no process reads a baseline an older build computed.
//
// Byte cap: the cache keeps a running count of the bytes under dir, so a
// store costs the same however many records the directory holds. The first
// store walks the directory once to set the count; each later store adds
// the size of the record it wrote. Overwrites, deleted damaged files and
// other processes' evictions only make the count too high, never too low,
// so it stays an upper bound. When it passes maxBytes, one store walks the
// directory, deletes the oldest-modified records down to the low-water
// mark (7/8 of the cap) and resets the count to what is left: a cache at
// its cap walks once per cap/8 bytes written, not on every store. Counters
// are atomics and only walks take walkMu, which a store merely tries, so a
// load never waits on directory I/O.
type DiskCache struct {
	dir      string
	maxBytes int64

	// bytes bounds the record bytes under dir from above once counted is
	// set by the first walk.
	bytes   atomic.Int64
	counted atomic.Bool
	// walkMu serializes walks; a store that finds it held leaves the walk
	// to its holder.
	walkMu sync.Mutex
	walks  atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64
	writes atomic.Uint64
}

const (
	diskMagic   = "PDSC"
	diskVersion = uint32(2)
)

// DefaultDiskCacheBytes caps the on-disk footprint at 256 MB — hundreds of
// thousands of baseline records — unless the caller picks a budget.
const DefaultDiskCacheBytes int64 = 256 << 20

// OpenDiskCache opens (creating if needed) a persistent baseline cache
// rooted at dir, evicting oldest files when the directory exceeds maxBytes
// (non-positive means DefaultDiskCacheBytes).
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("protocol: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("protocol: disk cache: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	return &DiskCache{dir: dir, maxBytes: maxBytes}, nil
}

// Stats reports hits, misses and writes since the cache was opened.
func (d *DiskCache) Stats() (hits, misses, writes uint64) { return d.counters() }

func (d *DiskCache) counters() (uint64, uint64, uint64) {
	return d.hits.Load(), d.misses.Load(), d.writes.Load()
}

// path maps a runKey to its cache file.
func (d *DiskCache) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(d.dir, strconv.FormatUint(h.Sum64(), 16)+".pds")
}

// diskReadBytes sizes load's pooled read buffer: every record of the lab
// pair campaign and of generated stress traffic fits it (their keys are
// under 600 bytes), while records of long phoronix scripts take a second,
// full read.
const diskReadBytes = 1 << 10

var diskReadBufs = sync.Pool{New: func() any { return new([diskReadBytes]byte) }}

// load reads and validates the baseline record stored for key. Every
// failure mode — missing file, short read, bad magic, version, key, window
// or ID mismatch, checksum mismatch — is a miss; invalid files are deleted
// so they are not re-parsed on every lookup.
func (d *DiskCache) load(key string, stable time.Duration, id string) (division.Baseline, bool) {
	p := d.path(key)
	buf := diskReadBufs.Get().(*[diskReadBytes]byte)
	defer diskReadBufs.Put(buf)
	raw, err := readRecord(p, buf[:])
	if err != nil {
		d.miss()
		return division.Baseline{}, false
	}
	b, err := decodeRecord(raw, key, stable, id)
	if err != nil {
		os.Remove(p)
		d.miss()
		return division.Baseline{}, false
	}
	d.hits.Add(1)
	obsDiskHits.Inc()
	return b, true
}

// readRecord reads the file at p with one read into buf, and reads the
// rest only when the record fills buf. A regular file's read returns what
// the file holds up to len(buf); were one ever short, the record fails its
// checksum and is recomputed, never misread.
func readRecord(p string, buf []byte) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := f.Read(buf)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n < len(buf) {
		return buf[:n], nil
	}
	rest, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return append(buf[:n:n], rest...), nil
}

func (d *DiskCache) miss() {
	d.misses.Add(1)
	obsDiskMisses.Inc()
}

// store writes the baseline record for key atomically and enforces the
// byte cap. Failures are silent by design: the disk tier is an
// accelerator, and a full or read-only disk must never fail a campaign.
func (d *DiskCache) store(key string, stable time.Duration, b division.Baseline) {
	raw := encodeRecord(key, stable, b)
	tmp, err := os.CreateTemp(d.dir, "pds-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.writes.Add(1)
	obsDiskWrites.Inc()
	if d.bytes.Add(int64(len(raw))) > d.maxBytes || !d.counted.Load() {
		d.walk()
	}
}

// walk counts the record bytes under dir and, when they or the running
// count pass the cap, removes oldest-modified records down to the
// low-water mark. The count becomes what the walk left, plus whatever
// stores added while it ran, so it stays an upper bound. A store that
// finds a walk in progress returns at once: that walk, or the next store
// past the cap, does the work.
func (d *DiskCache) walk() {
	if !d.walkMu.TryLock() {
		return
	}
	defer d.walkMu.Unlock()
	before, first := d.bytes.Load(), !d.counted.Load()
	if !first && before <= d.maxBytes {
		return // a walk that just ended already counted this store
	}
	d.walks.Add(1)
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type fileAge struct {
		path string
		size int64
		mod  time.Time
	}
	var files []fileAge
	var total int64
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".pds" {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, fileAge{filepath.Join(d.dir, ent.Name()), fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	// Past the first walk, the running count passed the cap: trim even
	// when overwrites inflated it, so walks stay one per cap/8 bytes.
	if total > d.maxBytes || !first {
		low := d.maxBytes - d.maxBytes/8
		sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
		for _, f := range files {
			if total <= low {
				break
			}
			if os.Remove(f.path) == nil {
				total -= f.size
			}
		}
	}
	d.bytes.Add(total - before)
	d.counted.Store(true)
}

// Binary encoding. All integers are little-endian; floats travel as their
// IEEE-754 bit patterns, so a round-trip reproduces every value exactly and
// warm-from-disk campaigns stay bit-identical to cold ones.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// encodeRecord lays out a version-2 record: magic, version, the runKey
// echo, the stable window, the app ID, Total, Residual and Cores, then the
// checksum of all of it.
func encodeRecord(key string, stable time.Duration, r division.Baseline) []byte {
	b := make([]byte, 0, len(diskMagic)+4+4+len(key)+8+4+len(r.ID)+4*8)
	b = append(b, diskMagic...)
	b = appendU32(b, diskVersion)
	b = appendStr(b, key)
	b = appendU64(b, uint64(stable))
	b = appendStr(b, r.ID)
	b = appendU64(b, math.Float64bits(float64(r.Total)))
	b = appendU64(b, math.Float64bits(float64(r.Residual)))
	b = appendU64(b, math.Float64bits(r.Cores))
	h := fnv.New64a()
	h.Write(b)
	return appendU64(b, h.Sum64())
}

// decoder is a bounds-checked cursor over an encoded record.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// str returns the next length-prefixed string's bytes, aliasing the
// record, so comparing them to a key allocates nothing.
func (d *decoder) str() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: truncated disk cache entry")
	}
}

// decodeRecord validates raw as the record of key's solo run of app id
// over the stable window, and returns its baseline.
func decodeRecord(raw []byte, key string, stable time.Duration, id string) (division.Baseline, error) {
	if len(raw) < len(diskMagic)+4+8 {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache entry too short")
	}
	body, sumBytes := raw[:len(raw)-8], raw[len(raw)-8:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(sumBytes) {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache checksum mismatch")
	}
	if string(body[:len(diskMagic)]) != diskMagic {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache bad magic")
	}
	d := &decoder{b: body, off: len(diskMagic)}
	if v := d.u32(); v != diskVersion {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache version %d (want %d)", v, diskVersion)
	}
	if echo := d.str(); d.err != nil || string(echo) != key {
		// Hash collision or stale key: not this run's data.
		return division.Baseline{}, fmt.Errorf("protocol: disk cache key mismatch")
	}
	if w := time.Duration(d.u64()); d.err != nil || w != stable {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache record for another stable window")
	}
	if rid := d.str(); d.err != nil || string(rid) != id {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache ID mismatch")
	}
	b := division.Baseline{
		ID:       id,
		Total:    units.Watts(math.Float64frombits(d.u64())),
		Residual: units.Watts(math.Float64frombits(d.u64())),
		Cores:    math.Float64frombits(d.u64()),
	}
	if d.err != nil {
		return division.Baseline{}, d.err
	}
	if d.off != len(body) {
		return division.Baseline{}, fmt.Errorf("protocol: disk cache trailing bytes")
	}
	return b, nil
}
