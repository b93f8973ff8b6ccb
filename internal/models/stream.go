package models

import (
	"sync"

	"powerdiv/internal/machine"
	"powerdiv/internal/units"
)

// StreamReplay drives several models segment by segment as a simulation
// streams (see ObserveSimulated), accumulating each model's estimates into one
// slab-backed DenseEstimates matrix per model — without a machine.Run or
// a per-tick slice ever being materialised. The accumulated matrices grow
// O(roster × ticks), which is all phase-3 scoring needs.
//
// Feeding order is the stream's tick order, and each model instance must be
// driven only through this replay (observation advances calibration
// state). Estimates are bit-identical to observing the same ticks one by
// one through Observe, scattered by roster slot: a tick is a one-tick
// segment.
type StreamReplay struct {
	roster *machine.Roster
	models []Model
	ests   []*DenseEstimates
	n      int
	// arena is the pooled backing store the per-model slabs were carved
	// from; nil once released.
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
	// ests/estStructs recycle the replay's per-model bookkeeping (estimate
	// pointers and the pointed-to structs), so a released replay costs one
	// allocation to rebuild.
	ests       []*DenseEstimates
	estStructs []DenseEstimates
	// seg is the segment view ObserveSimulated refills from each simulator
	// segment; its Samples column keeps its storage across replays.
	seg SegmentTicks
}

// perModel returns the arena's per-model slices resized for n models,
// reallocating only on growth. Contents are overwritten by the caller.
func (a *replayArena) perModel(n int) ([]*DenseEstimates, []DenseEstimates) {
	if cap(a.ests) < n {
		a.ests = make([]*DenseEstimates, n)
		a.estStructs = make([]DenseEstimates, n)
	}
	return a.ests[:n], a.estStructs[:n]
}

var arenaPool = sync.Pool{New: func() any { return new(replayArena) }}

// NewStreamReplay readies a replay of ms over roster-indexed ticks.
// capTicks pre-sizes each estimate slab (the caller's upper bound on ticks,
// e.g. maxDur/tick+1); slabs grow if the stream runs longer. The arena's
// backing store grows geometrically, so replays of varying roster width
// settle on one allocation instead of regrowing it for each wider one.
func NewStreamReplay(roster *machine.Roster, ms []Model, capTicks int) *StreamReplay {
	if capTicks < 0 {
		capTicks = 0
	}
	a := arenaPool.Get().(*replayArena)
	ests, estStructs := a.perModel(len(ms))
	r := &StreamReplay{
		roster: roster,
		models: ms,
		ests:   ests,
		n:      roster.Len(),
	}
	colCap := capTicks * r.n
	total := len(ms) * colCap
	okTotal := len(ms) * capTicks
	if cap(a.slab) < total {
		a.slab = make([]units.Watts, total, max(total, 2*cap(a.slab)))
	} else {
		a.slab = a.slab[:total]
		clear(a.slab)
	}
	if cap(a.ok) < okTotal {
		a.ok = make([]bool, okTotal, max(okTotal, 2*cap(a.ok)))
	} else {
		a.ok = a.ok[:okTotal]
	}
	a.seg.Roster, a.seg.Samples = roster, sized(a.seg.Samples, r.n)
	r.arena = a
	for i := range ms {
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
	a.seg = SegmentTicks{Tick: Tick{Samples: a.seg.Samples}}
	arenaPool.Put(a)
}

// ObserveSimulated feeds one simulator segment, from a machine with
// logicalCPUs logical CPUs whose Procs column the replay's roster indexes,
// to every model (see ObserveSegment). The model-side view — each slot's
// CPU time, counters, threads and ground-truth active power, the first
// tick's time, the frequency and the per-tick powers — is the arena's,
// refilled on every call: it aliases the segment's power buffer and is
// valid only during the simulator's yield.
func (r *StreamReplay) ObserveSimulated(seg *machine.Segment, logicalCPUs int) {
	st, rec := &r.arena.seg, seg.Rec
	for slot := range st.Samples {
		st.Samples[slot] = SampleOf(&rec.Procs[slot])
	}
	st.Interval, st.LogicalCPUs = seg.Interval, logicalCPUs
	st.Tick.At, st.MachinePower, st.Freq, st.Powers = rec.At, seg.Powers[0], rec.Freq, seg.Powers
	r.ObserveSegment(st)
}

// ObserveSegment feeds a run of constant ticks (see SegmentTicks) to
// every model in one call, appending seg.TickCount() columns to each
// model's estimate matrix. Segment models observe the whole segment at
// once; foreign models without ObserveSegmentInto fall back to Observe
// once per tick. The segment's Samples column may be caller-owned scratch
// reused between segments: models copy what they keep.
func (r *StreamReplay) ObserveSegment(seg *SegmentTicks) {
	nt := seg.TickCount()
	if nt == 0 {
		return
	}
	for m, model := range r.models {
		d := r.ests[m]
		rows := extendColumn(d, r.n*nt)
		ok := extendFlags(d, nt)
		if sm, isSeg := model.(SegmentModel); isSeg {
			sm.ObserveSegmentInto(seg, rows, ok)
			continue
		}
		for k := 0; k < nt; k++ {
			est := model.Observe(seg.tickAt(k))
			if est == nil {
				continue
			}
			ok[k] = true
			col := rows[k*r.n : (k+1)*r.n]
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
// keeps growing) across further ObserveSegment calls.
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
