package protocol

import (
	"context"
	"crypto/sha256"

	"powerdiv/internal/division"
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
// The tier keys by a SHA-256 digest (campaignPlan.evalKey), not by a
// canonical string. Most of what the key covers — the machine spec, the
// run length, the campaign seed, the stable window and F2's per-app
// fingerprint — is constant within a campaign, so the plan hashes it once
// into a 32-byte prefix, and each scenario hashes only the prefix, its
// derived seed, its memoized process digests and its truths (~100 bytes
// for a pair) on the stack. A 32-byte key makes a cold miss cheap and an
// entry small. Equal digests of different inputs would need a SHA-256
// collision, and the digest only ever addresses this one in-memory tier,
// so exactness of the stored rows rests on collision resistance rather
// than on string equality; nothing persistent is keyed by it, so its
// layout is free to change. The baseline tier and DiskCache keep the exact
// runKey string.

// DefaultEvalMemoBytes caps the evaluation-digest tier's estimated
// footprint. Digests are ~100 bytes per factory plus the key, so the
// default holds every scenario×factory combination of any campaign in this
// repository many times over.
const DefaultEvalMemoBytes int64 = 32 << 20

// evalSum is the evaluation-digest tier's key (campaignPlan.evalKey), and
// the digest of a process-key fragment.
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

// evictEvalsLocked enforces the digest tier's byte cap, oldest first, with
// the same still-computing accounting as the baseline tier.
func (c *CacheScope) evictEvalsLocked() {
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
func (c *CacheScope) removeEvalLocked(key evalSum, e *evalEntry) {
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
// rows. The tier is bypassed — plain streaming evaluation — when the
// context has no cache scope or a factory has no fingerprint.
func evaluateScenarioCached(cctx context.Context, p *campaignPlan, s Scenario, truths []division.Shares) ([][]Evaluation, error) {
	c := p.ctx.Cache
	run := p.pairRun(s)
	if c == nil {
		return evaluateScenarioStreaming(cctx, p, s, &run, truths)
	}
	key, ok := p.evalKey(&run, truths)
	if !ok {
		return evaluateScenarioStreaming(cctx, p, s, &run, truths)
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
			return evaluateScenarioStreaming(cctx, p, s, &run, truths)
		}
		return e.d.materialize(s, run.label, p.fs, truths, run.roster.IDs()), nil
	}
	e := &evalEntry{done: make(chan struct{})}
	c.evals[key] = e
	c.evalOrder = append(c.evalOrder, key)
	c.misses++
	obsCacheMisses.Inc()
	c.mu.Unlock()

	rows, err := evaluateScenarioStreaming(cctx, p, s, &run, truths)
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
