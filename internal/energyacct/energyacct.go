// Package energyacct turns a power division model's per-tick estimates
// into per-application energy accounts — the Life Cycle Assessment use
// case the paper's Section V endorses for power division models ("this
// model would be able to capture an abstract vision of the infrastructure
// by allocating parts of its energy consumption to running applications").
//
// A Ledger accumulates attributed energy per application, tracks the
// unattributed remainder (machine energy during ticks where the model
// produced no estimate — PowerAPI learning windows, idle periods), and can
// close billing periods, as a provider invoicing VM tenants would.
package energyacct

import (
	"fmt"
	"sort"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
)

// Entry is one application's accumulated account.
type Entry struct {
	ID     string
	Energy units.Joules
}

// Ledger accumulates attributed energy.
type Ledger struct {
	accounts     map[string]units.Joules
	unattributed units.Joules
	total        units.Joules
	elapsed      time.Duration
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{accounts: map[string]units.Joules{}}
}

// Record ingests one sampling interval: the measured machine power and the
// model's estimates (nil when the model produced none — the interval's
// machine energy then counts as unattributed).
func (l *Ledger) Record(interval time.Duration, machinePower units.Watts, est map[string]units.Watts) {
	if interval <= 0 {
		return
	}
	l.elapsed += interval
	machineE := machinePower.Energy(interval)
	l.total += machineE
	if len(est) == 0 {
		l.unattributed += machineE
		return
	}
	var attributed units.Joules
	ids := make([]string, 0, len(est))
	for id := range est {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := est[id].Energy(interval)
		l.accounts[id] += e
		attributed += e
	}
	if rem := machineE - attributed; rem > 0 {
		// F3-style models leave residual energy unattributed.
		l.unattributed += rem
	}
}

// Energy returns an application's account balance.
func (l *Ledger) Energy(id string) units.Joules { return l.accounts[id] }

// Unattributed returns the machine energy no application was billed for.
func (l *Ledger) Unattributed() units.Joules { return l.unattributed }

// Total returns the machine energy observed.
func (l *Ledger) Total() units.Joules { return l.total }

// Elapsed returns the accounted wall time.
func (l *Ledger) Elapsed() time.Duration { return l.elapsed }

// Entries returns the accounts sorted by descending energy (ties by ID).
func (l *Ledger) Entries() []Entry {
	out := make([]Entry, 0, len(l.accounts))
	for id, e := range l.accounts {
		out = append(out, Entry{ID: id, Energy: e})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Energy != out[j].Energy {
			return out[i].Energy > out[j].Energy
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Close returns the period's entries plus the unattributed remainder and
// resets the ledger for the next billing period.
func (l *Ledger) Close() (entries []Entry, unattributed units.Joules) {
	entries = l.Entries()
	unattributed = l.unattributed
	l.accounts = map[string]units.Joules{}
	l.unattributed = 0
	l.total = 0
	l.elapsed = 0
	return entries, unattributed
}

// Validate checks the conservation invariant: attributed + unattributed
// equals the machine total (within floating-point tolerance).
func (l *Ledger) Validate() error {
	var attributed units.Joules
	for _, e := range l.Entries() {
		attributed += e.Energy
	}
	diff := float64(l.total - attributed - l.unattributed)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6*(1+float64(l.total)) {
		return fmt.Errorf("energyacct: %v attributed + %v unattributed != %v total",
			attributed, l.unattributed, l.total)
	}
	return nil
}

// FromRun replays a simulated run through a model, tick by tick over the
// run's roster, and returns the filled ledger — the batch path used by the
// Section V experiments.
func FromRun(run *machine.Run, factory models.Factory, seed int64) *Ledger {
	l := New()
	m := factory.New(seed)
	tick := models.Tick{
		Interval:    run.Tick(),
		LogicalCPUs: run.Config.Spec.Topology.LogicalCPUs(),
		Roster:      run.Roster,
		Samples:     make([]models.ProcSample, run.Roster.Len()),
	}
	for i := range run.Ticks {
		rec := &run.Ticks[i]
		for slot := range rec.Procs {
			tick.Samples[slot] = models.SampleOf(&rec.Procs[slot])
		}
		tick.At, tick.MachinePower, tick.Freq = rec.At, rec.Power, rec.Freq
		l.Record(tick.Interval, rec.Power, m.Observe(tick))
	}
	return l
}
