package protocol

import (
	"context"
	"crypto/sha256"
	"sync"

	"powerdiv/internal/division"
	"powerdiv/internal/machine"
	"powerdiv/internal/models"
)

// The evaluation-digest tier memoizes the *scored outcome* of one scenario
// across whole campaign repeats. The two lower tiers (full runs, run
// summaries) only dedupe simulation; a warm repeat of an identical campaign
// still re-streams every pair run through every model and re-scores it.
// Scoring is deterministic — the evaluation rows are a pure function of the
// simulated run (captured exactly by runKey), the campaign seed (model
// seeds derive from it), the stable-window setting, the truth shares, and
// the ordered factory list — so that repeat is pure waste, and it is the
// dominant cost of warm benchmark iterations and of re-submitted service
// jobs.
//
// The tier stores compact digests (a few floats per factory), not
// Evaluation values: digests are materialized into fresh Evaluations per
// caller, so cached results never alias a previous caller's truth maps or
// scenario slices beyond what the caller itself passed in.
//
// Correctness hinges on the key covering every input. Factories are
// functions, so they carry an explicit Fingerprint (models package); any
// factory with an empty fingerprint disables the tier for that scenario
// rather than risking a collision between differently-configured models
// sharing a name.
//
// The tier keys by the SHA-256 of the canonical encoding (evalKey), not by
// the encoding itself. The encoding is ~1.8 kB per scenario — mostly the
// machine spec and F2's per-app fingerprint, constant within a campaign —
// and a cold campaign builds one per scenario only to miss on it, then
// keeps it alive as the table key. A 32-byte digest makes a miss cheap and
// an entry small. Equal digests of different encodings would need a
// SHA-256 collision, and the digest only ever addresses this one
// in-memory tier, so exactness of the stored rows rests on collision
// resistance rather than on string equality; nothing persistent is keyed
// by it. The summary tier and DiskCache keep the exact runKey string.

// DefaultEvalMemoBytes caps the evaluation-digest tier's estimated
// footprint. Digests are ~100 bytes per factory plus the key, so the
// default holds every scenario×factory combination of any campaign in this
// repository many times over.
const DefaultEvalMemoBytes int64 = 32 << 20

// evalSum is the evaluation-digest tier's key: the SHA-256 of evalKey's
// canonical encoding.
type evalSum [sha256.Size]byte

// evalEntry is one memoized scenario evaluation with the singleflight shape
// of the other tiers. Unlike them it never stores errors: a failed or
// cancelled compute removes the entry (waiters fall back to computing
// themselves), so one job's cancellation cannot poison the result for the
// next.
type evalEntry struct {
	done    chan struct{}
	d       *evalDigest
	err     error
	size    int64
	sized   bool
	evicted bool
}

// evalDigest is the compact stored form of one scenario's [factory][truth]
// evaluation rows: exactly the bits scoring produced, nothing rebuildable.
type evalDigest struct {
	perFactory []factoryDigest
}

// factoryDigest is one factory's share of a digest. estShare is the mean
// estimated share per roster slot (sorted-ID order); hasShare distinguishes
// "no positive scored power" (an empty share map) from a real all-zero
// vector.
type factoryDigest struct {
	estShare []float64
	hasShare bool
	rows     []evalRow
}

// evalRow is one (factory, truth) cell.
type evalRow struct {
	ae          float64
	scoredTicks int
}

// estimatedBytes is the digest's ledger charge: slice payloads plus a fixed
// per-entry overhead for the table cell and the 32-byte key.
func (d *evalDigest) estimatedBytes() int64 {
	n := int64(sha256.Size) + 128
	for _, f := range d.perFactory {
		n += int64(len(f.estShare))*8 + int64(len(f.rows))*16 + 64
	}
	return n
}

// digestOf compresses evaluation rows into their stored form.
func digestOf(rows [][]Evaluation, rosterIDs []string) *evalDigest {
	d := &evalDigest{perFactory: make([]factoryDigest, len(rows))}
	for m, evs := range rows {
		fd := factoryDigest{rows: make([]evalRow, len(evs))}
		for i, ev := range evs {
			fd.rows[i] = evalRow{ae: ev.AE, scoredTicks: ev.ScoredTicks}
		}
		if len(evs) > 0 && len(evs[0].EstShare) > 0 {
			fd.hasShare = true
			fd.estShare = make([]float64, len(rosterIDs))
			for slot, id := range rosterIDs {
				fd.estShare[slot] = evs[0].EstShare[id]
			}
		}
		d.perFactory[m] = fd
	}
	return d
}

// materialize rebuilds the evaluation rows for one caller. AE, ScoredTicks
// and the share values are returned exactly as stored; EstShare maps are
// fresh per call, and the ratio point is recomputed from the same pure
// function over the same inputs scoring used, so the result is
// bit-identical to a cold evaluation.
func (d *evalDigest) materialize(s Scenario, label string, fs []models.Factory, truths []division.Shares, rosterIDs []string) [][]Evaluation {
	out := make([][]Evaluation, len(d.perFactory))
	for m, fd := range d.perFactory {
		estShare := division.Shares{}
		if fd.hasShare {
			for slot, id := range rosterIDs {
				estShare[id] = fd.estShare[slot]
			}
		}
		evs := make([]Evaluation, len(fd.rows))
		for i, row := range fd.rows {
			ev := Evaluation{
				Scenario:    s,
				Model:       fs[m].Name,
				AE:          row.ae,
				Truth:       truths[i],
				EstShare:    estShare,
				ScoredTicks: row.scoredTicks,
			}
			if len(s.Apps) == 2 {
				id0, id1 := s.Apps[0].ID, s.Apps[1].ID
				ev.Point = division.RatioPoint{
					X:     division.RatioPercent(truths[i][id0], truths[i][id1]),
					Y:     division.RatioPercent(estShare[id0], estShare[id1]),
					Label: label,
				}
			}
			evs[i] = ev
		}
		out[m] = evs
	}
	return out
}

// evalKey fingerprints everything a scenario evaluation depends on: the
// exact simulated run (runKey's encoding of the derived pair config), the
// campaign seed (model seeds derive from it), the stable-window setting,
// the ordered factory configurations, and the truth shares. The encoding
// is built in a pooled buffer and returned as its SHA-256, so a lookup
// allocates nothing beyond the residual curve's Points copy. ok is false —
// and the tier is bypassed — when any factory lacks a fingerprint.
func evalKey(ctx Context, cfg machine.Config, procs []machine.Proc, fs []models.Factory, truths []division.Shares) (evalSum, bool) {
	for _, f := range fs {
		if f.Fingerprint == "" {
			return evalSum{}, false
		}
	}
	bp := evalKeyBufs.Get().(*[]byte)
	b := append((*bp)[:0], "eval1|"...)
	b = appendRunKey(b, cfg, procs, ctx.RunFor)
	b = append(b, "|cseed:"...)
	b = keyI(b, ctx.Seed)
	b = append(b, "|sw:"...)
	b = keyI(b, int64(ctx.StableWindow))
	for _, f := range fs {
		b = append(b, "|f:"...)
		b = append(b, f.Name...)
		b = append(b, '=')
		b = append(b, f.Fingerprint...)
	}
	for _, truth := range truths {
		b = append(b, "|truth:"...)
		var stack [keyStackProcs]string
		for _, id := range sortedKeys(stack[:0], truth) {
			b = append(b, id...)
			b = append(b, '=')
			b = keyF(b, truth[id])
			b = append(b, ';')
		}
	}
	sum := evalSum(sha256.Sum256(b))
	*bp = b
	evalKeyBufs.Put(bp)
	return sum, true
}

// evalKeyBufs recycles evalKey's encoding buffers across scenarios.
var evalKeyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// evictEvalsLocked enforces the digest tier's byte cap, oldest first, with
// the same still-computing accounting as the summary tier.
func (c *runCache) evictEvalsLocked() {
	for c.evalBytes > c.evalByteLimit && len(c.evalOrder) > 0 {
		key := c.evalOrder[0]
		c.evalOrder = c.evalOrder[1:]
		if e, ok := c.evals[key]; ok {
			delete(c.evals, key)
			e.evicted = true
			if e.sized {
				c.evalBytes -= e.size
			}
			c.evictions++
			obsCacheEvictions.Inc()
		}
	}
}

// removeEvalLocked detaches a failed entry so later lookups recompute.
func (c *runCache) removeEvalLocked(key evalSum, e *evalEntry) {
	if cur, ok := c.evals[key]; ok && cur == e {
		delete(c.evals, key)
		for i, k := range c.evalOrder {
			if k == key {
				c.evalOrder = append(c.evalOrder[:i], c.evalOrder[i+1:]...)
				break
			}
		}
	}
	e.evicted = true
}

// evaluateScenarioCached is evaluateScenarioStreaming behind the
// evaluation-digest tier. Hits skip the simulation entirely and materialize
// the stored digest; misses compute, store, and return the freshly computed
// rows. The tier is bypassed — plain streaming evaluation — when
// memoization is off or a factory has no fingerprint.
func evaluateScenarioCached(cctx context.Context, ctx Context, s Scenario, fs []models.Factory, truths []division.Shares) ([][]Evaluation, error) {
	c := ctx.memo()
	c.mu.Lock()
	enabled := c.enabled
	c.mu.Unlock()
	run := newPairRun(ctx, s)
	if !enabled {
		return evaluateScenarioStreaming(cctx, ctx, s, run, fs, truths)
	}
	key, ok := evalKey(ctx, run.cfg, run.procs, fs, truths)
	if !ok {
		return evaluateScenarioStreaming(cctx, ctx, s, run, fs, truths)
	}

	c.mu.Lock()
	c.lookups++
	if e, ok := c.evals[key]; ok {
		c.hits++
		obsCacheHits.Inc()
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			// The compute we waited on failed (possibly another job's
			// cancellation); evaluate independently rather than inheriting
			// its error.
			return evaluateScenarioStreaming(cctx, ctx, s, run, fs, truths)
		}
		return e.d.materialize(s, run.label, fs, truths, run.roster.IDs()), nil
	}
	e := &evalEntry{done: make(chan struct{})}
	c.evals[key] = e
	c.evalOrder = append(c.evalOrder, key)
	c.misses++
	obsCacheMisses.Inc()
	c.mu.Unlock()

	rows, err := evaluateScenarioStreaming(cctx, ctx, s, run, fs, truths)
	c.mu.Lock()
	if err != nil {
		e.err = err
		c.removeEvalLocked(key, e)
	} else {
		e.d = digestOf(rows, run.roster.IDs())
		if !e.evicted {
			e.size = e.d.estimatedBytes()
			e.sized = true
			c.evalBytes += e.size
			c.evictEvalsLocked()
		}
	}
	c.mu.Unlock()
	close(e.done)
	return rows, err
}
