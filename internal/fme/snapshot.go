package fme

import (
	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The daemon saves its strike count, counters, probe
// loop and every probe round in progress; Restore rebuilds it on the
// restored process environment without scheduling anything, re-claiming
// each round's timeout, dial and connection. The disk probes in flight
// are saved by the disk array (simdisk SaveProbes), which finds their
// rounds through ctx.Owners, so this section must come first.

// SaveState serializes the daemon.
func (d *Daemon) SaveState(ctx *snapio.Ctx) {
	e := ctx.Enc
	e.Int(d.appStrikes)
	e.U64(d.probeSeq)
	e.U64(d.actions)
	cnet.SaveTicker(e, d.probeT, "fme probe")
	e.Int(len(d.probes))
	for _, p := range d.probes {
		e.U64(ctx.Owners.Ref(p))
		e.Bool(p.diskIn)
		e.Bool(p.diskHealthy)
		e.Bool(p.appIn)
		e.Int(int(p.app))
		cnet.SaveConn(ctx, p.conn)
		e.Bool(p.connOpen)
		cnet.SaveSerial(e, p.timeoutSer)
		e.Bool(p.dialing)
		if p.dialing {
			cnet.SaveDialRef(ctx, d.dialTag, p)
		}
	}
}

// Restore rebuilds a daemon from SaveState inside a snapshot restore.
func Restore(cfg Config, env cnet.RestoreEnv, disk Disk, ctl Control, ctx *snapio.Ctx) *Daemon {
	d := newDaemon(cfg, env, disk, ctl)
	dec := ctx.Dec
	d.appStrikes = dec.Int()
	d.probeSeq = dec.U64()
	d.actions = dec.U64()
	d.probeT = cnet.LoadTicker(dec, env, d.cfg.ProbePeriod, d.tick, "fme probe")
	handlers := map[cnet.Conn]cnet.StreamHandlers{}
	for k := dec.Count(1 << 10); k > 0; k-- {
		id := dec.U64()
		p := d.newProbe()
		ctx.Owners.Put(id, p)
		p.diskIn = dec.Bool()
		p.diskHealthy = dec.Bool()
		p.appIn = dec.Bool()
		p.app = appProbeResult(dec.Int())
		p.conn = cnet.LoadConn(ctx)
		p.connOpen = dec.Bool()
		p.timeoutSer = cnet.LoadSerial(dec, env, p.timeout)
		if p.conn != nil {
			cnet.RetainConn(p.conn) // no-op on snapshot-built conns; keeps the pin balanced with timeout
			handlers[p.conn] = p.h
		}
		p.dialing = dec.Bool()
		if p.dialing {
			cnet.LoadDialRef(ctx, env, p)
		}
	}
	// Other connections belong to retired rounds, whose queued calls
	// find the verdict in and the connection closed.
	cnet.RestoreConnHandlers(env, handlers)
	return d
}
