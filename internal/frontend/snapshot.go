package frontend

import (
	"press/internal/cnet"
	"press/internal/server"
	"press/internal/snapio"
)

// Snapshot support. The front-end saves its routing table, the ping
// loop and every in-use relay record; Restore rebuilds an unstarted
// front-end on the restored process environment, re-registers its
// listeners, re-claims the ping ticker, re-attaches each relay's
// handlers to its connections and its in-flight backend dial, and gives
// every other connection the process still carries inert handlers.
// Connection probing (C-MON, S-FME) runs on closures and refuses to
// snapshot.

// RegisterMessages registers the ping echo messages with the snapshot
// codec.
func RegisterMessages(c *snapio.MsgCodec) {
	c.Register("fe.Ping", PingMsg{},
		func(e *snapio.Encoder, m any) {
			p := m.(PingMsg)
			e.I64(int64(p.From))
			e.U64(p.Seq)
		},
		func(d *snapio.Decoder) any { return PingMsg{From: cnet.NodeID(d.I64()), Seq: d.U64()} })
	c.Register("fe.Pong", PongMsg{},
		func(e *snapio.Encoder, m any) {
			p := m.(PongMsg)
			e.I64(int64(p.From))
			e.U64(p.Seq)
		},
		func(d *snapio.Decoder) any { return PongMsg{From: cnet.NodeID(d.I64()), Seq: d.U64()} })
}

// SaveState serializes the front-end.
func (f *Frontend) SaveState(ctx *snapio.Ctx) {
	if f.cfg.ConnMonitor || f.cfg.SFME {
		snapio.Failf("frontend %d: snapshotting connection probes is not supported", f.cfg.Self)
	}
	e := ctx.Enc
	e.Int(f.rr)
	e.U64(f.relayed)
	e.U64(f.probeSeq)
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		e.Int(b.pingMisses)
		e.Bool(b.pingDown)
		e.Bool(b.connDown)
		e.Bool(b.isolated)
		e.Bool(b.awaitingPong)
		e.Int(len(b.lastView))
		for _, v := range b.lastView {
			e.I64(int64(v))
		}
	}
	cnet.SaveTicker(e, f.pingT, "frontend ping")

	e.Int(len(f.live))
	for _, r := range f.live {
		e.U64(ctx.Owners.Ref(r))
		cnet.SaveConn(ctx, r.client)
		cnet.SaveConn(ctx, r.backend)
		e.Bool(r.closed)
		e.Bool(r.req != nil)
		if r.req == nil {
			continue
		}
		ctx.Msgs.Encode(e, r.req)
		cnet.SaveDialRef(ctx, f.dialTag, r)
	}
}

// Restore rebuilds a front-end from SaveState inside a snapshot restore.
func Restore(cfg Config, env cnet.RestoreEnv, ctx *snapio.Ctx) *Frontend {
	f := newFrontend(cfg, env)
	if f.cfg.ConnMonitor || f.cfg.SFME {
		snapio.Failf("frontend %d: restoring connection probes is not supported", f.cfg.Self)
	}
	d := ctx.Dec
	f.rr = d.Int()
	f.relayed = d.U64()
	f.probeSeq = d.U64()
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		b.pingMisses = d.Int()
		b.pingDown = d.Bool()
		b.connDown = d.Bool()
		b.isolated = d.Bool()
		b.awaitingPong = d.Bool()
		for k := d.Count(1 << 16); k > 0; k-- {
			b.lastView = append(b.lastView, cnet.NodeID(d.I64()))
		}
	}
	f.pingT = cnet.LoadTicker(d, env, f.cfg.PingPeriod, f.pingTick, "frontend ping")

	handlers := map[cnet.Conn]cnet.StreamHandlers{}
	for k := d.Count(1 << 20); k > 0; k-- {
		id := d.U64()
		r := f.getRelay()
		ctx.Owners.Put(id, r)
		r.client = cnet.LoadConn(ctx)
		r.backend = cnet.LoadConn(ctx)
		r.closed = d.Bool()
		if r.client != nil {
			handlers[r.client] = r.ch
		}
		if r.backend != nil {
			cnet.RetainConn(r.backend) // no-op on snapshot-built conns; keeps the pin balanced with closeBoth
			handlers[r.backend] = r.bh
		}
		if d.Bool() {
			req, ok := ctx.Msgs.Decode(d).(*server.ReqMsg)
			if !ok {
				snapio.Failf("frontend %d: relay request is not a request", f.cfg.Self)
			}
			r.req = req
			cnet.LoadDialRef(ctx, env, r)
		}
	}
	// A connection no in-use relay holds belongs to a recycled record:
	// every handler call still queued for it finds a mismatched conn. A
	// conn whose dial result still sits in the mailbox gets its relay's
	// handlers from the machine restore.
	cnet.RestoreConnHandlers(env, handlers)
	return f
}
