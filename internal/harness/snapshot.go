package harness

import (
	"time"

	"press/internal/fme"
	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/server"
	"press/internal/simnet"
	"press/internal/snapio"
)

// NewSnapCtx builds the shared save/load context for one world stream:
// connection references resolve through blank simnet halves (the
// connection table is one of the last sections), and the wire-message
// codec knows every message that can sit in a buffer or mailbox.
func NewSnapCtx() *snapio.Ctx {
	msgs := snapio.NewMsgCodec()
	server.RegisterMessages(msgs)
	frontend.RegisterMessages(msgs)
	membership.RegisterMessages(msgs)
	return &snapio.Ctx{
		Conns:  snapio.NewRefTable(simnet.BlankConn),
		Owners: snapio.NewRefTable(nil),
		Msgs:   msgs,
	}
}

// World serialization: the harness owns the section order because it is
// the only layer that sees every subsystem. The envelope (magic, format
// version, options, offered rate) is written by internal/snapshot; this
// file serializes everything inside one built world, in an order chosen
// so that save and load read the same linear byte stream:
//
//	metrics log → network core → machines → per-node server sections →
//	workload → fault injector → disks → caller extra → network pending
//	events → connection tables → kernel counters.
//
// The network core comes first because it registers every interface's
// connection halves in ctx.Conns in deterministic order; the pending and
// connection tables come last because by then every owner (dial records,
// disk operations, requests) has registered in ctx.Owners; the kernel
// counters come very last so SetCounters overwrites whatever bookkeeping
// the re-arming of events touched.

// Per-node server section tags. A node whose press process died keeps a
// stale *Server holder that OperatorReset and the chaos result assembly
// still read; it is saved as a husk (observable accessors only).
const (
	srvNone = iota // holder is nil (never booted)
	srvLive        // press alive: full state
	srvHusk        // press dead: stats, view, queue lengths
)

// SaveWorld serializes the cluster's complete dynamic state. extra, when
// non-nil, is invoked between the subsystem sections and the network
// tables — the slot where a driver (the chaos runner) saves its own
// pending timers, which must still claim from the pending table.
func (c *Cluster) SaveWorld(ctx *snapio.Ctx, extra func(*snapio.Ctx)) {
	if !snapshotSupported(c.Traits, c.Opts) {
		snapio.Failf("harness: version %s not supported by snapshots (INDEP through FME, no redundant front-end)", c.Version)
	}

	var evs []snapio.PendingEvent
	c.Sim.VisitPending(func(at time.Duration, seq uint64, afn func(any), arg any, fn func()) {
		evs = append(evs, snapio.PendingEvent{At: at, Seq: seq, AFn: afn, Arg: arg, Fn: fn})
	})
	ctx.SetPending(evs)

	c.Log.SaveState(ctx)
	c.Net.SaveCore(ctx)
	for _, m := range c.Machines {
		m.SaveState(ctx)
	}
	for _, m := range c.FEMachines {
		m.SaveState(ctx)
	}
	e := ctx.Enc
	for i, m := range c.Machines {
		srv := *c.servers[i]
		p := m.Proc("press")
		switch {
		case srv == nil:
			e.Int(srvNone)
		case p != nil && p.Alive():
			e.Int(srvLive)
			if c.Traits.memb {
				(*c.clients[i]).SaveState(e)
			}
			srv.SaveState(ctx)
		default:
			e.Int(srvHusk)
			srv.SaveHusk(ctx)
		}
	}
	for i, m := range c.Machines {
		if c.Traits.memb {
			c.pubs[i].SaveState(e)
			alive := procAlive(m, "membd")
			e.Bool(alive)
			if alive {
				(*c.membds[i]).SaveState(e)
			}
		}
		if c.Traits.fme {
			alive := procAlive(m, "fme")
			e.Bool(alive)
			if alive {
				(*c.fmes[i]).SaveState(ctx)
			}
			m.Disks().SaveProbes(ctx)
			restarts := ctx.ClaimWhere(func(ev snapio.PendingEvent) bool {
				return ev.AFn != nil && snapio.FnPtr(ev.AFn) == snapio.FnPtr(restartPress) && ev.Arg == any(m)
			})
			e.Int(len(restarts))
			for _, ev := range restarts {
				e.Dur(ev.At)
				e.U64(ev.Seq)
			}
		}
	}
	for i, m := range c.FEMachines {
		alive := procAlive(m, "frontend")
		e.Bool(alive)
		if alive {
			(*c.fes[i]).SaveState(ctx)
		}
	}
	c.Gen.SaveState(ctx)
	c.Injector.SaveState(ctx)
	for _, m := range c.Machines {
		m.Disks().SaveState(ctx)
	}
	if extra != nil {
		extra(ctx)
	}
	c.Net.SavePending(ctx)
	c.Net.SaveConns(ctx)

	if un := ctx.Unclaimed(); len(un) > 0 {
		ev := un[0]
		name := snapio.FnName(ev.AFn)
		if ev.AFn == nil {
			name = snapio.FnName(ev.Fn)
		}
		snapio.Failf("harness: %d unclaimed pending events after save; first %s at %v seq %d",
			len(un), name, ev.At, ev.Seq)
	}

	now, seq, fired, maxQ := c.Sim.Counters()
	e.Dur(now)
	e.U64(seq)
	e.U64(fired)
	e.Int(maxQ)
}

// procAlive reports whether machine m runs a live process called name.
func procAlive(m *machine.Machine, name string) bool {
	p := m.Proc(name)
	return p != nil && p.Alive()
}

// RestoreWorld builds a cold world and rehydrates SaveWorld's stream
// into it. extra mirrors SaveWorld's hook and runs at the same stream
// position. The returned cluster continues byte-identically to the one
// that was saved.
func RestoreWorld(v Version, o Options, rate float64, ctx *snapio.Ctx, extra func(*Cluster, *snapio.Ctx)) *Cluster {
	c := BuildForRestore(v, o, rate)
	if n := c.Sim.Pending(); n != 0 {
		snapio.Failf("harness: cold world booted %d stray kernel events", n)
	}

	c.Log.LoadState(ctx)
	c.Net.LoadCore(ctx)
	for _, m := range c.Machines {
		m.LoadState(ctx)
	}
	for _, m := range c.FEMachines {
		m.LoadState(ctx)
	}
	d := ctx.Dec
	for i, m := range c.Machines {
		switch tag := d.Int(); tag {
		case srvNone:
		case srvLive:
			env := m.RestoreEnv("press")
			var mv server.MembershipView
			if c.Traits.memb {
				*c.clients[i] = membership.RestoreClient(env, c.pubs[i], membPoll, d)
				mv = *c.clients[i]
			}
			*c.servers[i] = server.Restore(c.srvCfgs[i], env, m.Disks(), mv, ctx)
		case srvHusk:
			*c.servers[i] = server.RestoreHusk(ctx)
		default:
			snapio.Failf("harness: bad server section tag %d for node %d", tag, i)
		}
	}
	for i, m := range c.Machines {
		if c.Traits.memb {
			c.pubs[i].LoadState(d)
			if d.Bool() {
				*c.membds[i] = membership.RestoreDaemon(c.membCfgs[i], m.RestoreEnv("membd"), c.pubs[i], d)
			}
		}
		if c.Traits.fme {
			if d.Bool() {
				*c.fmes[i] = fme.Restore(c.fmeCfgs[i], m.RestoreEnv("fme"), m.Disks(), fmeControl{s: c.Sim, m: m}, ctx)
			}
			m.Disks().LoadProbes(ctx)
			for k := d.Count(4); k > 0; k-- {
				at, seq := d.Dur(), d.U64()
				c.Sim.RestoreAtArg(at, seq, restartPress, m)
			}
		}
	}
	for _, m := range c.Machines {
		if c.Traits.fe && procAlive(m, "icmp") {
			frontend.NewPingResponder(m.RestoreEnv("icmp")) // stateless; binding schedules nothing
		}
	}
	for i, m := range c.FEMachines {
		if d.Bool() {
			*c.fes[i] = frontend.Restore(c.feCfgs[i], m.RestoreEnv("frontend"), ctx)
		}
	}
	for _, m := range c.Machines {
		m.FinishRestore(ctx)
	}
	for _, m := range c.FEMachines {
		m.FinishRestore(ctx)
	}
	c.Gen.LoadState(ctx)
	c.Injector.LoadState(ctx)
	for _, m := range c.Machines {
		m.Disks().LoadState(ctx)
	}
	if extra != nil {
		extra(c, ctx)
	}
	c.Net.LoadPending(ctx)
	c.Net.LoadConns(ctx)

	now := d.Dur()
	seq := d.U64()
	fired := d.U64()
	maxQ := d.Int()
	c.Sim.SetCounters(now, seq, fired, maxQ)
	return c
}
