package machine

import "sort"

// Roster is the stable process index of one run: the scenario's process IDs
// in sorted order; Slot finds an ID by binary search. Every dense per-tick
// column in the run (TickRecord.Procs, the models package's sample and
// estimate columns) is indexed by roster slot, so the hot loops index
// slices instead of hashing strings into per-tick maps.
//
// A roster is immutable after construction and safe to share across
// goroutines.
type Roster struct {
	ids []string
}

// NewRoster builds a roster from a set of process IDs. The IDs are copied
// and sorted; duplicates are collapsed.
func NewRoster(ids []string) *Roster {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, id := range sorted {
		if i == 0 || sorted[i-1] != id {
			out = append(out, id)
		}
	}
	return newSortedRoster(out)
}

// newSortedRoster builds a roster over ids, which must already be sorted
// and duplicate-free; the roster takes ownership of the slice.
func newSortedRoster(ids []string) *Roster { return &Roster{ids: ids} }

// Len returns the number of roster slots.
func (r *Roster) Len() int {
	if r == nil {
		return 0
	}
	return len(r.ids)
}

// IDs returns the roster's process IDs in slot order (sorted). The slice is
// shared — callers must not modify it.
func (r *Roster) IDs() []string {
	if r == nil {
		return nil
	}
	return r.ids
}

// ID returns the process ID of a slot.
func (r *Roster) ID(slot int) string { return r.ids[slot] }

// Slot returns the slot of a process ID.
func (r *Roster) Slot(id string) (int, bool) {
	if r == nil {
		return 0, false
	}
	if i := sort.SearchStrings(r.ids, id); i < len(r.ids) && r.ids[i] == id {
		return i, true
	}
	return 0, false
}
