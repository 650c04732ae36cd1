package faults

import (
	"sort"

	"press/internal/snapio"
)

// Snapshot support. Active faults serialize as (slot, flap spec, whether
// the effect is currently applied, pending toggle identity). The effect
// itself lives in the target subsystems (link state, disk fault flags,
// machine state) and is restored with them; LoadState therefore rebuilds
// each fault's undo closure via undoFor WITHOUT re-imposing the effect,
// and re-arms the flap toggle pinned at its exact kernel slot.

// ActiveAt returns the active fault occupying (t, c), or nil. The chaos
// runner's restore path uses it to re-link its per-entry Active handles
// to the injector records faults.LoadState rebuilt.
func (in *Injector) ActiveAt(t Type, c int) *Active { return in.active[slot{t, c}] }

// SaveState serializes the active fault set.
func (in *Injector) SaveState(ctx *snapio.Ctx) {
	e := ctx.Enc
	slots := make([]slot, 0, len(in.active))
	for k := range in.active {
		slots = append(slots, k)
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].t != slots[j].t {
			return slots[i].t < slots[j].t
		}
		return slots[i].c < slots[j].c
	})
	e.Int(len(slots))
	for _, k := range slots {
		a := in.active[k]
		e.Int(int(a.Type))
		e.Int(a.Component)
		e.Dur(a.Flap.On)
		e.Dur(a.Flap.Off)
		e.F64(a.Severity)
		e.Int(a.Group)
		e.Bool(a.undo != nil)
		at, seq, pending := a.timer.Key()
		e.Bool(pending)
		if pending {
			e.Dur(at)
			e.U64(seq)
			claimed := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
				return ev.At == at && ev.Seq == seq
			})
			if len(claimed) != 1 {
				snapio.Failf("faults: toggle timer for %v/%d not in pending table", a.Type, a.Component)
			}
		}
	}
}

// LoadState restores the active fault set into a freshly built injector
// over equivalent targets.
func (in *Injector) LoadState(ctx *snapio.Ctx) {
	d := ctx.Dec
	for k := d.Count(1 << 12); k > 0; k-- {
		a := &Active{in: in}
		a.Type = Type(d.Int())
		a.Component = d.Int()
		a.Flap.On = d.Dur()
		a.Flap.Off = d.Dur()
		a.Severity = d.F64()
		a.Group = d.Int()
		if !in.slotInRange(a.Type, a.Component) {
			snapio.Failf("faults: active slot %d/%d names no component of this world", int(a.Type), a.Component)
		}
		if d.Bool() {
			a.undo = in.undoFor(a.Type, a.Component)
		}
		if d.Bool() {
			at := d.Dur()
			seq := d.U64()
			a.timer = in.sim.RestoreAt(at, seq, a.toggle)
		}
		key := slot{a.Type, a.Component}
		if _, dup := in.active[key]; dup {
			snapio.Failf("faults: duplicate active slot %v/%d in snapshot", a.Type, a.Component)
		}
		in.active[key] = a
	}
}

// slotInRange reports whether (t, c) names a component of the injector's
// targets, the precondition undoFor indexes under.
func (in *Injector) slotInRange(t Type, c int) bool {
	switch {
	case t < 0 || t >= numTypes:
		return false
	case t == SwitchDown:
		return true
	case t == FrontendFailure:
		return in.t.Frontend != nil
	case t == SCSITimeout || t == DiskDegraded:
		n := c / 2
		return c >= 0 && n < len(in.t.Machines) && in.t.Machines[n].Disks() != nil &&
			c%2 < len(in.t.Machines[n].Disks().Disks())
	default:
		return c >= 0 && c < len(in.t.Machines)
	}
}
