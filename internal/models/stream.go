package models

import (
	"sync"

	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// StreamReplay drives several models tick by tick as a simulation streams,
// accumulating each model's estimates into the same slab-backed
// DenseEstimates that ReplayDense produces — without a machine.Run or a
// dense tick slice ever being materialised. Per-tick state is one estimate
// column per model; the accumulated matrices grow O(roster × ticks), which
// is all phase-3 scoring needs.
//
// Feeding order is the stream's tick order, and each model instance must be
// driven only through this replay (ObserveInto/Observe advance calibration
// state). Estimates are bit-identical to ReplayDense over the same ticks:
// the dense path calls the same ObserveInto, and the map fallback
// materialises the same ProcsView and scatters by the same roster slots.
type StreamReplay struct {
	roster *machine.Roster
	models []Model
	// dense is index-aligned with models; nil where the model has no
	// columnar fast path.
	dense []DenseModel
	ests  []*DenseEstimates
	n     int
	// arena is the pooled backing store the per-model slabs were carved
	// from; nil once released (or when the replay was built before pooling
	// existed in a test helper).
	arena *replayArena
}

// replayArena is one pooled backing allocation shared by all of a replay's
// estimate slabs and OK vectors. A campaign evaluates hundreds of
// scenarios, each allocating ~len(ms) slabs sized for the whole run;
// recycling the backing store removes the dominant allocation (and GC
// scan) cost of the streaming pipeline. Returned memory is re-zeroed on
// reuse, so carved regions keep the freshly-made-slab invariant
// extendColumn relies on.
type replayArena struct {
	slab []units.Watts
	ok   []bool
	// dense/ests/estStructs recycle the replay's per-model bookkeeping
	// (interface table, estimate pointers and the pointed-to structs), so
	// a released replay costs one allocation to rebuild.
	dense      []DenseModel
	ests       []*DenseEstimates
	estStructs []DenseEstimates
}

// perModel returns the arena's per-model slices resized for n models,
// reallocating only on growth. Contents are overwritten by the caller.
func (a *replayArena) perModel(n int) ([]DenseModel, []*DenseEstimates, []DenseEstimates) {
	if cap(a.dense) < n {
		a.dense = make([]DenseModel, n)
		a.ests = make([]*DenseEstimates, n)
		a.estStructs = make([]DenseEstimates, n)
	}
	return a.dense[:n], a.ests[:n], a.estStructs[:n]
}

var arenaPool = sync.Pool{New: func() any { return new(replayArena) }}

// NewStreamReplay readies a replay of ms over roster-indexed ticks.
// capTicks pre-sizes each estimate slab (the caller's upper bound on ticks,
// e.g. maxDur/tick+1); slabs grow if the stream runs longer.
func NewStreamReplay(roster *machine.Roster, ms []Model, capTicks int) *StreamReplay {
	if capTicks < 0 {
		capTicks = 0
	}
	a := arenaPool.Get().(*replayArena)
	dense, ests, estStructs := a.perModel(len(ms))
	r := &StreamReplay{
		roster: roster,
		models: ms,
		dense:  dense,
		ests:   ests,
		n:      roster.Len(),
	}
	colCap := capTicks * r.n
	total := len(ms) * colCap
	okTotal := len(ms) * capTicks
	if cap(a.slab) < total {
		a.slab = make([]units.Watts, total)
	} else {
		a.slab = a.slab[:total]
		clear(a.slab)
	}
	if cap(a.ok) < okTotal {
		a.ok = make([]bool, okTotal)
	} else {
		a.ok = a.ok[:okTotal]
	}
	r.arena = a
	for i, m := range ms {
		dense[i] = nil
		if dm, ok := m.(DenseModel); ok {
			dense[i] = dm
		}
		estStructs[i] = DenseEstimates{
			Roster: roster,
			Slab:   a.slab[i*colCap : i*colCap : (i+1)*colCap],
			OK:     a.ok[i*capTicks : i*capTicks : (i+1)*capTicks],
		}
		ests[i] = &estStructs[i]
	}
	return r
}

// releaser is implemented by models holding pooled state that outlives
// their calibrations (PowerAPI's RNG register). release ends the model.
type releaser interface{ release() }

// Release returns the replay's backing store to the pool, and the pooled
// state of its models to theirs. The replay, its models and every
// DenseEstimates it handed out become invalid; call it only after scoring
// has consumed the estimates. Slabs that outgrew their arena region (a
// stream longer than capTicks) migrated to their own allocations and are
// unaffected. Releasing is optional — unreleased memory is simply
// garbage-collected.
func (r *StreamReplay) Release() {
	a := r.arena
	if a == nil {
		return
	}
	for _, m := range r.models {
		if rm, ok := m.(releaser); ok {
			rm.release()
		}
	}
	// r.ests aliases the arena's pointer array, so it must be cleared
	// before the Put: afterwards the arena may already belong to another
	// replay.
	r.arena = nil
	for i := range r.ests {
		r.ests[i] = nil
	}
	arenaPool.Put(a)
}

// Observe feeds one tick to every model, appending a column to each
// model's estimate matrix. The tick's Samples column may be caller-owned
// scratch reused between ticks: dense models copy what they keep
// (ObserveInto's contract) and the map fallback materialises its own view.
func (r *StreamReplay) Observe(t Tick) {
	// The map view is materialised at most once per tick and shared by all
	// map-fallback models, which treat it as read-only.
	var procs map[string]ProcSample
	for m, model := range r.models {
		d := r.ests[m]
		col := extendColumn(d, r.n)
		if dm := r.dense[m]; dm != nil && t.Samples != nil {
			if dm.ObserveInto(t, col) {
				d.OK = append(d.OK, true)
			} else {
				clear(col)
				d.OK = append(d.OK, false)
			}
			continue
		}
		mt := t
		if procs == nil {
			procs = t.ProcsView()
		}
		mt.Procs = procs
		est := model.Observe(mt)
		if est == nil {
			d.OK = append(d.OK, false)
			continue
		}
		d.OK = append(d.OK, true)
		for slot, id := range r.roster.IDs() {
			col[slot] = est[id]
		}
	}
}

// ObserveSegment feeds a run of constant ticks (see SegmentTicks) to
// every model in one call, appending seg.TickCount() columns to each
// model's estimate matrix. Models implementing SegmentModel observe the
// whole segment at once; the rest fall back to per-tick ObserveInto (or
// the map path) over the segment's materialised ticks. Either way the
// appended estimates and OK flags are bit-identical to TickCount()
// successive Observe calls — segments only batch the work, never change
// it.
func (r *StreamReplay) ObserveSegment(seg *SegmentTicks) {
	nt := seg.TickCount()
	if nt == 0 {
		return
	}
	var procs map[string]ProcSample
	for m, model := range r.models {
		d := r.ests[m]
		rows := extendColumn(d, r.n*nt)
		ok := extendFlags(d, nt)
		if sm, isSeg := model.(SegmentModel); isSeg && seg.Samples != nil {
			sm.ObserveSegmentInto(seg, rows, ok)
			continue
		}
		for k := 0; k < nt; k++ {
			t := seg.tickAt(k)
			col := rows[k*r.n : (k+1)*r.n]
			if dm := r.dense[m]; dm != nil && t.Samples != nil {
				if dm.ObserveInto(t, col) {
					ok[k] = true
				} else {
					clear(col)
				}
				continue
			}
			if procs == nil {
				procs = seg.Tick.ProcsView()
			}
			t.Procs = procs
			est := model.Observe(t)
			if est == nil {
				continue
			}
			ok[k] = true
			for slot, id := range r.roster.IDs() {
				col[slot] = est[id]
			}
		}
	}
}

// Ticks returns how many ticks have been observed so far.
func (r *StreamReplay) Ticks() int {
	if len(r.ests) == 0 {
		return 0
	}
	return r.ests[0].Ticks()
}

// Estimates returns model m's accumulated matrix. It stays valid (and
// keeps growing) across further Observe calls.
func (r *StreamReplay) Estimates(m int) *DenseEstimates {
	return r.ests[m]
}

// extendColumn appends one zeroed n-wide column to the estimate slab and
// returns it. Within capacity this is a reslice (make's backing array is
// zeroed and columns are only written through this path); growth copies
// like append would.
func extendColumn(d *DenseEstimates, n int) []units.Watts {
	old := len(d.Slab)
	if cap(d.Slab) >= old+n {
		d.Slab = d.Slab[:old+n]
	} else {
		grown := make([]units.Watts, old+n, 2*old+n)
		copy(grown, d.Slab)
		d.Slab = grown
	}
	return d.Slab[old : old+n : old+n]
}

// extendFlags appends n false flags to the OK vector and returns them,
// growing like extendColumn. The region is re-zeroed explicitly: segment
// observers only set the flags of OK ticks.
func extendFlags(d *DenseEstimates, n int) []bool {
	old := len(d.OK)
	if cap(d.OK) >= old+n {
		d.OK = d.OK[:old+n]
	} else {
		grown := make([]bool, old+n, 2*old+n)
		copy(grown, d.OK)
		d.OK = grown
	}
	fresh := d.OK[old : old+n : old+n]
	clear(fresh)
	return fresh
}
