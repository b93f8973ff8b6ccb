package vm

import (
	"fmt"
	"strings"
	"time"

	"powerdiv/internal/machine"
	"powerdiv/internal/models"
	"powerdiv/internal/units"
)

// MultiVM hosts several guest processes inside one virtual machine — the
// paper's introduction scenario: the cloud provider divides machine power
// among VMs, and each VM's owner divides their VM's share among the
// applications inside it, without any visibility into the host ("context
// of deployment ... is invisible within the virtual machines").
type MultiVM struct {
	Name   string
	VCPUs  int
	Guests []machine.Proc
}

// Validate checks the VM and its guests, including that the guests fit the
// vCPU budget.
func (m MultiVM) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("vm: empty name")
	}
	if strings.Contains(m.Name, "/") {
		return fmt.Errorf("vm %s: name must not contain '/'", m.Name)
	}
	if m.VCPUs <= 0 {
		return fmt.Errorf("vm %s: %d vCPUs", m.Name, m.VCPUs)
	}
	if len(m.Guests) == 0 {
		return fmt.Errorf("vm %s: no guests", m.Name)
	}
	total := 0
	seen := map[string]bool{}
	for _, g := range m.Guests {
		if g.ID == "" || strings.Contains(g.ID, "/") {
			return fmt.Errorf("vm %s: invalid guest ID %q", m.Name, g.ID)
		}
		if seen[g.ID] {
			return fmt.Errorf("vm %s: duplicate guest %q", m.Name, g.ID)
		}
		seen[g.ID] = true
		total += g.Threads
	}
	if total > m.VCPUs {
		return fmt.Errorf("vm %s: guests need %d threads, VM has %d vCPUs", m.Name, total, m.VCPUs)
	}
	return nil
}

// GuestID returns the host-level process ID of a guest.
func GuestID(vmName, guest string) string { return vmName + "/" + guest }

// SplitGuestID splits a host-level guest ID back into (vm, guest).
func SplitGuestID(id string) (vmName, guest string, ok bool) {
	i := strings.IndexByte(id, '/')
	if i < 0 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// HostMulti validates capacity and flattens the VMs' guests into
// host-level processes with "vm/guest" IDs.
func HostMulti(cfg machine.Config, vms []MultiVM) ([]machine.Proc, error) {
	capacity := cfg.Spec.Topology.PhysicalCores()
	if cfg.Hyperthreading {
		capacity = cfg.Spec.Topology.LogicalCPUs()
	}
	total := 0
	seen := map[string]bool{}
	var procs []machine.Proc
	for _, v := range vms {
		if err := v.Validate(); err != nil {
			return nil, err
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("vm: duplicate name %q", v.Name)
		}
		seen[v.Name] = true
		total += v.VCPUs
		for _, g := range v.Guests {
			hg := g
			hg.ID = GuestID(v.Name, g.ID)
			procs = append(procs, hg)
		}
	}
	if total > capacity {
		return nil, fmt.Errorf("vm: %d vCPUs exceed host capacity %d", total, capacity)
	}
	return procs, nil
}

// NestedTick is the composed attribution for one tick.
type NestedTick struct {
	At time.Duration
	// PerVM is the host-level division among VMs (what the provider
	// bills); nil when the host model produced no estimate.
	PerVM map[string]units.Watts
	// PerGuest is the second-level division, keyed by "vm/guest"; a VM's
	// guests are absent while its guest model produces no estimate.
	PerGuest map[string]units.Watts
}

// NestedDivision composes two levels of power division over a simulated
// run of MultiVM guests:
//
//   - the host model sees one aggregate process per VM (summed CPU time
//     and counters — what a hypervisor exposes) and divides the measured
//     machine power among VMs;
//   - each VM runs its own instance of the guest model, which sees only
//     that VM's guests and treats the VM's attributed power as its
//     "machine" power — exactly the visibility a tenant has.
//
// Both levels see the record's frequency. The host roster (VM names) and
// each VM's guest roster are fixed for the run; a VM or guest that is not
// running has a zero sample. The returned slice is index-aligned with
// run.Ticks.
func NestedDivision(run *machine.Run, host, guest models.Factory, seed int64) ([]NestedTick, error) {
	ids := run.Roster.IDs()
	guestNames := map[string][]string{}
	var names []string
	for _, id := range ids {
		vmName, guestName, ok := SplitGuestID(id)
		if !ok {
			return nil, fmt.Errorf("vm: process %q is not a vm/guest ID", id)
		}
		if guestNames[vmName] == nil {
			names = append(names, vmName)
		}
		guestNames[vmName] = append(guestNames[vmName], guestName)
	}
	hostRoster := machine.NewRoster(names)
	hostModel := host.New(seed)
	hostSamples := make([]models.ProcSample, hostRoster.Len())
	type tenant struct {
		roster  *machine.Roster
		model   models.Model
		samples []models.ProcSample
	}
	tenants := make([]tenant, hostRoster.Len())
	for v, name := range hostRoster.IDs() {
		r := machine.NewRoster(guestNames[name])
		tenants[v] = tenant{roster: r, model: guest.New(seed + int64(v) + 1), samples: make([]models.ProcSample, r.Len())}
	}
	// vmSlot and guestSlot place each run slot in the two levels' rosters.
	vmSlot := make([]int, len(ids))
	guestSlot := make([]int, len(ids))
	for slot, id := range ids {
		vmName, guestName, _ := SplitGuestID(id)
		vmSlot[slot], _ = hostRoster.Slot(vmName)
		guestSlot[slot], _ = tenants[vmSlot[slot]].roster.Slot(guestName)
	}

	logical := run.Config.Spec.Topology.LogicalCPUs()
	out := make([]NestedTick, len(run.Ticks))
	for i := range run.Ticks {
		rec := &run.Ticks[i]
		clear(hostSamples)
		for v := range tenants {
			clear(tenants[v].samples)
		}
		for slot := range rec.Procs {
			if !rec.Procs[slot].Present() {
				continue
			}
			ps := models.SampleOf(&rec.Procs[slot])
			v := vmSlot[slot]
			agg := &hostSamples[v]
			agg.CPUTime += ps.CPUTime
			agg.Counters = agg.Counters.Add(ps.Counters)
			agg.TrueActive += ps.TrueActive
			// A hypervisor sees a VM's CPU time, not its guests' thread
			// counts: a running VM joins with one thread.
			agg.Threads = 1
			tenants[v].samples[guestSlot[slot]] = ps
		}
		tick := models.Tick{
			At:           rec.At,
			Interval:     run.Tick(),
			MachinePower: rec.Power,
			LogicalCPUs:  logical,
			Freq:         rec.Freq,
			Roster:       hostRoster,
			Samples:      hostSamples,
		}
		nt := NestedTick{At: rec.At, PerVM: hostModel.Observe(tick)}
		if nt.PerVM != nil {
			nt.PerGuest = map[string]units.Watts{}
			for v, vmName := range hostRoster.IDs() {
				vmPower, attributed := nt.PerVM[vmName]
				if !hostSamples[v].Present() || !attributed {
					continue
				}
				tn := &tenants[v]
				tick.MachinePower, tick.Roster, tick.Samples = vmPower, tn.roster, tn.samples
				for g, w := range tn.model.Observe(tick) {
					nt.PerGuest[GuestID(vmName, g)] = w
				}
			}
			if len(nt.PerGuest) == 0 {
				nt.PerGuest = nil
			}
		}
		out[i] = nt
	}
	return out, nil
}
