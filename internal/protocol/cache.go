package protocol

import (
	"math"
	"strconv"
	"sync"
	"time"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/workload"
)

// The campaign hot path re-measures identical phase 1 baselines
// constantly: every campaign over the same applications, every ablation
// and every benchmark iteration repeats the same solo runs. Simulation is
// deterministic — a run is fully determined by the machine config
// (calibration included), the process list and the duration — so those
// repeats are pure waste. A CacheScope memoizes each solo run's baseline
// record behind a key derived from exactly those inputs (plus the stable
// window) and is shared safely across the parallel.go worker pool. Whole
// runs are never cached: every phase 2–3 consumer streams its scenario.

// baselineEntry is one memoized phase 1 baseline record in the byte-capped
// tier. done is closed once b/err are populated, giving concurrent
// requesters of the same key singleflight semantics: the first computes,
// the rest wait. size/sized carry the byte accounting: an entry is charged
// against the cap only once its compute finishes (sized), and an entry
// evicted while still computing (evicted) is never charged — the flag
// keeps the bytes ledger exact under concurrent insert/evict
// interleavings.
type baselineEntry struct {
	done    chan struct{}
	b       division.Baseline
	err     error
	size    int64
	sized   bool
	evicted bool
}

// CacheScope is a bounded memoization table of phase 1 baseline records
// (the three floats phases 2–3 use per solo run) in one byte-capped FIFO
// tier, backed by an optional DiskCache, and the unit of cache isolation.
// A campaign selects one through Context.Cache; nil means no memoization.
// A scope shares nothing with any other: its records are charged against
// its own budget, evicted within it, and released wholesale by Drop, so
// one tenant's sweep can never evict another tenant's baselines (or grow
// the process past its admission-time budget).
type CacheScope struct {
	mu sync.Mutex

	byteLimit int64
	bytes     int64
	baselines map[string]*baselineEntry
	baseOrder []string

	hits      uint64
	misses    uint64
	lookups   uint64
	evictions uint64

	disk *DiskCache
}

// DefaultMemoBytes is the default cap on the baseline tier's estimated
// footprint. A baseline record is charged its key plus a few dozen bytes
// (well under 1 KB), so 64 MB holds every baseline of any campaign this
// repository runs by orders of magnitude; the cap exists so unbounded
// sweeps degrade to recomputation instead of memory growth.
const DefaultMemoBytes int64 = 64 << 20

// NewCacheScope returns an empty cache scope whose baseline tier is capped
// at byteLimit bytes (non-positive means DefaultMemoBytes).
func NewCacheScope(byteLimit int64) *CacheScope {
	if byteLimit <= 0 {
		byteLimit = DefaultMemoBytes
	}
	return &CacheScope{
		byteLimit: byteLimit,
		baselines: map[string]*baselineEntry{},
	}
}

var defaultScope = NewCacheScope(DefaultMemoBytes)

// DefaultScope returns the scope DefaultContext hands every campaign, so
// the experiments, the CLIs and the powerdiv facade share their phase 1
// baselines as one campaign would. It is process-wide only because the
// deprecated ResetMemoization and MemoizationStats reach it without a
// context; code that owns its campaign opens its own NewCacheScope.
func DefaultScope() *CacheScope { return defaultScope }

// Stats reports the scope's activity since creation or the last Drop.
func (c *CacheScope) Stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// AttachDisk gives the scope a persistent baseline tier: memory misses are
// looked up on disk before simulating, and fresh baselines are written
// back, so a scope opened per job still starts phase 1 warm.
// Several scopes may share one DiskCache — its writes are atomic and its
// counters are lock-protected. A nil disk detaches.
func (c *CacheScope) AttachDisk(d *DiskCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = d
}

// Drop releases everything the scope holds and zeroes its statistics.
// Waiters on in-flight entries still receive their results; the tables are
// emptied so the memory is reclaimable as soon as those callers return.
// Entries still computing are detached from the table and never charge
// the ledger.
func (c *CacheScope) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.baselines {
		e.evicted = true
	}
	c.baselines = map[string]*baselineEntry{}
	c.baseOrder = nil
	c.bytes = 0
	c.hits, c.misses, c.lookups, c.evictions = 0, 0, 0, 0
}

// ResetMemoization empties DefaultScope and zeroes its statistics.
//
// Deprecated: open a CacheScope per campaign and Drop it instead.
func ResetMemoization() { DefaultScope().Drop() }

// MemoizationStats returns DefaultScope's statistics.
//
// Deprecated: read the campaign's own CacheScope.Stats instead.
func MemoizationStats() MemoStats { return DefaultScope().Stats() }

// MemoStats reports a scope's activity since creation or the last Drop.
// All counters are maintained under one lock, so any snapshot satisfies
// Hits + Misses == Lookups and SummaryBytes <= SummaryByteLimit —
// invariants the concurrency stress test asserts while workers hammer the
// scope.
type MemoStats struct {
	Hits    uint64
	Misses  uint64
	Lookups uint64
	// SummaryEntries/SummaryBytes describe the byte-capped phase 1 tier,
	// under SummaryByteLimit. That tier holds baseline records (one per
	// solo run and stable window), not run digests; the Summary names are
	// kept for the tools that read them. SummaryBytes is the estimated
	// footprint of completed entries only.
	SummaryEntries   int
	SummaryBytes     int64
	SummaryByteLimit int64
	// EvalBytes is always 0: scored scenarios are not memoized.
	//
	// Deprecated: read SummaryBytes, the scope's whole footprint.
	EvalBytes int64
	// Evictions counts entries dropped by the byte cap.
	Evictions uint64
	// DiskHits/DiskMisses/DiskWrites count the persistent baseline cache's
	// activity (zero when no disk cache is attached).
	DiskHits   uint64
	DiskMisses uint64
	DiskWrites uint64
}

// statsLocked snapshots every tier's counters under the scope lock.
func (c *CacheScope) statsLocked() MemoStats {
	st := MemoStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Lookups:          c.lookups,
		SummaryEntries:   len(c.baselines),
		SummaryBytes:     c.bytes,
		SummaryByteLimit: c.byteLimit,
		Evictions:        c.evictions,
	}
	if c.disk != nil {
		st.DiskHits, st.DiskMisses, st.DiskWrites = c.disk.counters()
	}
	return st
}

// evictBaselinesLocked enforces the byte cap, oldest first. A still-
// computing entry has no size yet; marking it evicted makes its compute
// skip the charge, so bytes only ever counts completed, table-resident
// entries.
func (c *CacheScope) evictBaselinesLocked() {
	for c.bytes > c.byteLimit && len(c.baseOrder) > 0 {
		key := c.baseOrder[0]
		c.baseOrder = c.baseOrder[1:]
		if e, ok := c.baselines[key]; ok {
			delete(c.baselines, key)
			e.evicted = true
			if e.sized {
				c.bytes -= e.size
			}
			c.evictions++
			obsCacheEvictions.Inc()
		}
	}
}

// baselineCached is soloBaseline behind the scope's byte-capped baseline
// tier, with singleflight semantics (see baselineEntry); a nil scope
// computes directly. A record is keyed by the solo run's runKey plus the
// stable window it was extracted over; nothing of the solo run outlives
// the compute. A memory miss consults the persistent tier before simulating,
// and a fresh compute is written back so the next scope or process starts
// warm. Disk records carry the floats' bit patterns, so a disk hit is
// indistinguishable from a memory hit downstream.
func (c *CacheScope) baselineCached(cfg machine.Config, procs []machine.Proc, maxDur, stable time.Duration, id string) (division.Baseline, error) {
	if c == nil {
		return soloBaseline(cfg, procs, maxDur, stable, id)
	}
	kb := appendRunKey(make([]byte, 0, recordKeyBytes), cfg, procs, maxDur)
	nRun := len(kb)
	kb = appendWindowKey(kb, stable)
	c.mu.Lock()
	c.lookups++
	if e, ok := c.baselines[string(kb)]; ok {
		c.hits++
		obsCacheHits.Inc()
		c.mu.Unlock()
		<-e.done
		return e.b, e.err
	}
	key := string(kb)
	e := &baselineEntry{done: make(chan struct{})}
	c.baselines[key] = e
	c.baseOrder = append(c.baseOrder, key)
	c.misses++
	obsCacheMisses.Inc()
	disk := c.disk
	c.mu.Unlock()

	runKey := key[:nRun]
	var hit bool
	if disk != nil {
		e.b, hit = disk.load(runKey, stable, id)
	}
	if !hit {
		e.b, e.err = soloBaseline(cfg, procs, maxDur, stable, id)
		if e.err == nil && disk != nil {
			disk.store(runKey, stable, e.b)
		}
	}
	c.mu.Lock()
	if !e.evicted {
		e.size = int64(len(key)+len(id)) + baselineRecordBytes
		e.sized = true
		c.bytes += e.size
		c.evictBaselinesLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.b, e.err
}

// baselineRecordBytes is a baseline record's charge beyond its key and ID:
// the three floats and the entry's bookkeeping, roughly.
const baselineRecordBytes = 32

// recordKeyBytes is the initial capacity of a record key's buffer: the
// record keys of the lab pair campaign and of generated traffic fit it
// (the longest is ~570 bytes), so the buffer stays on the stack and only
// the table's copy of a missed key is allocated. A longer key still works;
// it only moves the buffer to the heap. TestRecordKeyFitsBuffer holds it.
const recordKeyBytes = 768

// appendWindowKey completes a baseline record's key: the solo run's
// runKey, then the stable window the baseline was extracted over.
func appendWindowKey(b []byte, stable time.Duration) []byte {
	b = append(b, "|sw:"...)
	return keyI(b, int64(stable))
}

// Key-building primitives: floats are encoded as their IEEE bit patterns
// (exact, no formatting ambiguity), integers in decimal, strings verbatim
// between delimiters. The encoding only needs to be deterministic and
// injective per field position — it is a cache key, not a display string —
// and the strconv appends run an order of magnitude faster than the
// fmt-based formatting they replaced, which profiles showed dominating
// warm campaigns.

func keyF(b []byte, f float64) []byte { return strconv.AppendUint(b, math.Float64bits(f), 36) }
func keyI(b []byte, v int64) []byte   { return strconv.AppendInt(b, v, 10) }

// runKey fingerprints everything a simulation's outcome depends on: the
// machine calibration and performance settings (seed included), the full
// process list (workload definition included), and the duration. Process
// order is normalised away — the simulator schedules in ID order, so
// permutations produce identical runs. DiskCache names and echoes its
// records by this exact string, and the baseline tier's record keys extend
// it (TestRunKeyEncodingPinned freezes it).
func runKey(cfg machine.Config, procs []machine.Proc, maxDur time.Duration) string {
	return string(appendRunKey(make([]byte, 0, 512), cfg, procs, maxDur))
}

// appendRunKey appends runKey's encoding to b: the machine key, the seed
// and duration, then the process list. Besides the growth of b, the only
// allocation is the residual curve's Points copy (and an order buffer for
// rosters wider than keyStackProcs).
func appendRunKey(b []byte, cfg machine.Config, procs []machine.Proc, maxDur time.Duration) []byte {
	return appendRunTail(appendMachineKey(b, cfg), cfg.Seed, maxDur, procs)
}

// appendRunTail appends what follows the machine key in runKey: the seed,
// the duration and the process list.
func appendRunTail(b []byte, seed int64, maxDur time.Duration, procs []machine.Proc) []byte {
	b = append(b, "|seed:"...)
	b = keyI(b, seed)
	b = append(b, "|dur:"...)
	b = keyI(b, int64(maxDur))
	return appendProcsKey(b, procs)
}

// appendMachineKey appends the machine's calibration and performance
// settings — everything of cfg but its seed, which a campaign derives per
// scenario.
func appendMachineKey(b []byte, cfg machine.Config) []byte {
	spec := cfg.Spec
	b = append(b, "spec:"...)
	b = append(b, spec.Name...)
	b = append(b, "|top:"...)
	b = keyI(b, int64(spec.Topology.Sockets))
	b = append(b, '/')
	b = keyI(b, int64(spec.Topology.CoresPerSocket))
	b = append(b, '/')
	b = keyI(b, int64(spec.Topology.ThreadsPerCore))
	b = append(b, "|freq:"...)
	b = keyF(b, float64(spec.Freq.Min))
	b = append(b, '/')
	b = keyF(b, float64(spec.Freq.Base))
	b = append(b, '/')
	b = keyF(b, float64(spec.Freq.Turbo))
	b = append(b, '/')
	b = keyF(b, float64(spec.Freq.TurboDerate))
	b = append(b, "|pw:"...)
	b = keyF(b, float64(spec.Power.Idle))
	b = append(b, '/')
	b = keyF(b, spec.Power.FreqExponent)
	b = append(b, '/')
	b = keyF(b, spec.Power.SMTEfficiency)
	b = append(b, '/')
	b = keyF(b, float64(spec.Power.BaseFreq))
	b = append(b, "|rc:"...)
	for _, pt := range spec.Power.Residual.Points() {
		b = keyF(b, float64(pt.Freq))
		b = append(b, '=')
		b = keyF(b, float64(pt.R))
		b = append(b, ';')
	}
	b = append(b, "|ht:"...)
	b = strconv.AppendBool(b, cfg.Hyperthreading)
	b = append(b, "|turbo:"...)
	b = strconv.AppendBool(b, cfg.Turbo)
	b = append(b, "|maxf:"...)
	b = keyF(b, float64(cfg.MaxFreq))
	b = append(b, "|tick:"...)
	b = keyI(b, int64(cfg.Tick))
	b = append(b, "|noise:"...)
	b = keyF(b, float64(cfg.NoiseStddev))
	return b
}

// appendProcsKey appends every process's fragment in ID order.
func appendProcsKey(b []byte, procs []machine.Proc) []byte {
	// Index insertion sort into ID order: rosters are small, and the
	// machine rejects duplicate IDs, so the order is unambiguous.
	var stack [keyStackProcs]int
	order := stack[:0]
	for i := range procs {
		j := len(order)
		order = append(order, i)
		for ; j > 0 && procs[order[j-1]].ID > procs[i].ID; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for _, i := range order {
		b = appendProcKey(b, &procs[i])
	}
	return b
}

// appendProcKey appends one process's fragment: its ID, threads, quota,
// lifetime, pins and workload definition.
func appendProcKey(b []byte, p *machine.Proc) []byte {
	b = append(b, "|proc:"...)
	b = append(b, p.ID...)
	b = append(b, "|thr:"...)
	b = keyI(b, int64(p.Threads))
	b = append(b, "|quota:"...)
	b = keyF(b, p.CPUQuota)
	b = append(b, "|start:"...)
	b = keyI(b, int64(p.Start))
	b = append(b, "|stop:"...)
	b = keyI(b, int64(p.Stop))
	b = append(b, "|pin:"...)
	if p.Pinned == nil {
		b = append(b, "nil"...)
	} else {
		for _, pin := range p.Pinned {
			b = keyI(b, int64(pin))
			b = append(b, ',')
		}
	}
	b = append(b, '|')
	return workloadKey(b, p.Workload)
}

// keyStackProcs is the roster width appendProcsKey orders without a heap
// buffer; wider traffic rosters spill to one allocation.
const keyStackProcs = 32

// workloadKey fingerprints a workload definition. Two workloads sharing a
// name but differing in calibration or script must not collide.
func workloadKey(b []byte, w workload.Workload) []byte {
	b = append(b, "w:"...)
	b = append(b, w.Name...)
	b = append(b, '/')
	b = keyI(b, int64(w.Kind))
	b = append(b, "|mix:"...)
	b = keyF(b, w.Mix.IPC)
	b = append(b, '/')
	b = keyF(b, w.Mix.CacheRefsPerKiloInstr)
	b = append(b, '/')
	b = keyF(b, w.Mix.BranchesPerKiloInstr)
	b = append(b, "|cost:"...)
	var stack [8]string
	for _, n := range sortedKeys(stack[:0], w.Cost) {
		b = append(b, n...)
		b = append(b, '=')
		b = keyF(b, float64(w.Cost[n]))
		b = append(b, ';')
	}
	b = append(b, "|script:"...)
	b = keyI(b, int64(len(w.Script)))
	b = append(b, ':')
	for _, ph := range w.Script {
		b = keyI(b, int64(ph.Duration))
		b = append(b, '/')
		b = keyI(b, int64(ph.Threads))
		b = append(b, '/')
		b = keyF(b, ph.Intensity)
		b = append(b, '/')
		b = keyF(b, ph.Util)
		b = append(b, ';')
	}
	return b
}

// sortedKeys appends m's keys to buf in ascending order. An insertion sort
// suffices for the small maps keys are built from, and a stack-backed buf
// keeps it allocation-free.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		j := len(buf)
		buf = append(buf, k)
		for ; j > 0 && buf[j-1] > k; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = k
	}
	return buf
}
