package simdisk

import (
	"press/internal/snapio"
)

// Snapshot support. Callbacks (op completions, space notifications)
// cannot be serialized; every Read and NotifySpace is tagged with an
// owner record (SetNextOwner) that is registered in ctx.Owners by its
// own section and re-supplies the callbacks on load through the
// interfaces below.

// ReadOwner re-supplies the completion callback of a restored read.
type ReadOwner interface {
	RestoreDiskDone() func(ok bool)
}

// SpaceOwner re-supplies the callback of a restored NotifySpace
// registration.
type SpaceOwner interface {
	RestoreDiskNotify() func()
}

func ownerRef(ctx *snapio.Ctx, owner any, what string) uint64 {
	if owner == nil {
		snapio.Failf("simdisk: %s has no owner tag", what)
	}
	id, ok := ctx.Owners.Lookup(owner)
	if !ok {
		snapio.Failf("simdisk: %s owner %T not registered in snapshot", what, owner)
	}
	return id
}

func saveOp(ctx *snapio.Ctx, o op, what string) {
	ctx.Enc.Int(o.key)
	ctx.Enc.U64(ownerRef(ctx, o.owner, what))
}

func loadOp(ctx *snapio.Ctx) op {
	key := ctx.Dec.Int()
	owner := ctx.Owners.Obj(ctx.Dec.U64())
	ro, ok := owner.(ReadOwner)
	if !ok {
		snapio.Failf("simdisk: op owner %T cannot restore a read", owner)
	}
	return op{key: key, done: ro.RestoreDiskDone(), owner: owner}
}

// SaveState serializes the array: device state, the shared generator,
// the queue, blocked threads, space waiters, and in-service operations
// (claimed from the kernel's pending table, re-armed pinned on load).
// Owner sections must have registered their records first.
func (a *Array) SaveState(ctx *snapio.Ctx) {
	e := ctx.Enc
	for _, d := range a.disks {
		if d.rng != a.disks[0].rng {
			snapio.Failf("simdisk: devices do not share one generator")
		}
	}
	snapio.SaveRand(e, a.disks[0].rng)
	e.Int(len(a.disks))
	for _, d := range a.disks {
		e.Bool(d.faulty)
		e.F64(d.degraded)
		e.U64(d.reads)
	}
	e.Int(a.idle)
	e.Int(len(a.queue))
	for _, o := range a.queue {
		saveOp(ctx, o, "queued read")
	}
	for _, d := range a.disks {
		ops := a.blocked[d]
		e.Int(len(ops))
		for _, o := range ops {
			saveOp(ctx, o, "blocked read")
		}
	}
	e.Int(len(a.onSpace))
	for _, cb := range a.onSpace {
		e.U64(ownerRef(ctx, cb.owner, "space waiter"))
	}

	svc := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
		if ev.AFn == nil || snapio.FnPtr(ev.AFn) != snapio.FnPtr(svcDone) {
			return false
		}
		return ev.Arg.(*svcOp).a == a
	})
	e.Int(len(svc))
	for _, ev := range svc {
		r := ev.Arg.(*svcOp)
		e.Dur(ev.At)
		e.U64(ev.Seq)
		idx := -1
		for i, d := range a.disks {
			if d == r.d {
				idx = i
			}
		}
		if idx < 0 {
			snapio.Failf("simdisk: in-service op on foreign device")
		}
		e.Int(idx)
		saveOp(ctx, r.o, "in-service read")
	}
}

// LoadState restores SaveState's sections into a freshly built array.
// Owner sections must have loaded first.
func (a *Array) LoadState(ctx *snapio.Ctx) {
	d := ctx.Dec
	snapio.LoadRand(d, a.disks[0].rng)
	nd := d.Count(1 << 8)
	if nd != len(a.disks) {
		snapio.Failf("simdisk: snapshot has %d devices, world has %d", nd, len(a.disks))
	}
	for _, dev := range a.disks {
		dev.faulty = d.Bool()
		dev.degraded = d.F64()
		dev.reads = d.U64()
	}
	a.idle = d.Int()
	for k := d.Count(1 << 16); k > 0; k-- {
		a.queue = append(a.queue, loadOp(ctx))
	}
	for _, dev := range a.disks {
		for k := d.Count(1 << 16); k > 0; k-- {
			a.blocked[dev] = append(a.blocked[dev], loadOp(ctx))
		}
	}
	for k := d.Count(1 << 16); k > 0; k-- {
		owner := ctx.Owners.Obj(d.U64())
		so, ok := owner.(SpaceOwner)
		if !ok {
			snapio.Failf("simdisk: space waiter %T cannot restore", owner)
		}
		a.onSpace = append(a.onSpace, spaceCb{fn: so.RestoreDiskNotify(), owner: owner})
	}
	for k := d.Count(1 << 16); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		idx := d.Int()
		if idx < 0 || idx >= len(a.disks) {
			snapio.Failf("simdisk: device index %d out of range", idx)
		}
		r := &svcOp{a: a, d: a.disks[idx], o: loadOp(ctx)}
		a.sim.RestoreAtArg(at, seq, svcDone, r)
	}
}

// ProbeOwner re-supplies the completion callback of a restored probe.
type ProbeOwner interface {
	RestoreProbeDone() func(healthy bool)
}

// SaveProbes writes every device probe in flight on the array, claiming
// their kernel events. A probe whose verdict is still out names its
// owner, which must already be registered in ctx.Owners; one already
// reported needs no callback.
func (a *Array) SaveProbes(ctx *snapio.Ctx) {
	e := ctx.Enc
	evs := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
		if ev.AFn == nil || snapio.FnPtr(ev.AFn) != snapio.FnPtr(devProbeFire) {
			return false
		}
		return ev.Arg.(*devProbe).a == a
	})
	ops := map[*probeOp]int{}
	var order []*probeOp
	for _, ev := range evs {
		op := ev.Arg.(*devProbe).op
		if _, ok := ops[op]; !ok {
			ops[op] = len(order)
			order = append(order, op)
		}
	}
	e.Int(len(order))
	for _, op := range order {
		e.Int(op.remaining)
		e.Bool(op.reported)
		if !op.reported {
			e.U64(ownerRef(ctx, op.owner, "disk probe"))
		}
	}
	e.Int(len(evs))
	for _, ev := range evs {
		r := ev.Arg.(*devProbe)
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.Int(ops[r.op])
		e.Int(a.devIndex(r.d))
		e.Bool(r.faulty)
	}
}

// LoadProbes re-arms SaveProbes' device probes at their exact kernel
// slots. Owner sections must have loaded first.
func (a *Array) LoadProbes(ctx *snapio.Ctx) {
	d := ctx.Dec
	var ops []*probeOp
	for k := d.Count(1 << 16); k > 0; k-- {
		op := &probeOp{remaining: d.Int(), reported: d.Bool()}
		if !op.reported {
			owner := ctx.Owners.Obj(d.U64())
			po, ok := owner.(ProbeOwner)
			if !ok {
				snapio.Failf("simdisk: probe owner %T cannot restore a probe", owner)
			}
			op.owner, op.done = owner, po.RestoreProbeDone()
		}
		ops = append(ops, op)
	}
	for k := d.Count(1 << 16); k > 0; k-- {
		at := d.Dur()
		seq := d.U64()
		oi, di := d.Int(), d.Int()
		if oi < 0 || oi >= len(ops) || di < 0 || di >= len(a.disks) {
			snapio.Failf("simdisk: probe reference (%d, %d) out of range", oi, di)
		}
		r := &devProbe{op: ops[oi], a: a, d: a.disks[di], faulty: d.Bool()}
		a.sim.RestoreAtArg(at, seq, devProbeFire, r)
	}
}

// devIndex returns dev's position in the array.
func (a *Array) devIndex(dev *Disk) int {
	for i, d := range a.disks {
		if d == dev {
			return i
		}
	}
	snapio.Failf("simdisk: probe on a foreign device")
	return -1
}
