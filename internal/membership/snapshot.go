package membership

import (
	"time"

	"press/internal/cnet"
	"press/internal/snapio"
)

// Snapshot support. The daemon saves its view, its failure-detection
// evidence, the 2PC and join-protocol state, and the identities of its
// tickers and pending timers; RestoreDaemon rebuilds it on the restored
// process environment without scheduling or emitting anything. The
// shared segment (Published) outlives the daemon and is saved on its
// own; the client library saves only its poll loop, and its
// subscriptions come back when the restoring application re-subscribes.

// RegisterMessages registers every membership wire message with the
// snapshot codec. Pooled records decode pool-less.
func RegisterMessages(c *snapio.MsgCodec) {
	c.Register("memb.HB", (*MHeartbeat)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*MHeartbeat)
			e.I64(int64(r.From))
			e.U64(r.Ver)
		},
		func(d *snapio.Decoder) any { return &MHeartbeat{From: cnet.NodeID(d.I64()), Ver: d.U64()} })
	c.Register("memb.Gossip", (*MGossip)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*MGossip)
			e.I64(int64(r.From))
			encNodes(e, r.Nodes)
			e.Int(len(r.Counts))
			for _, v := range r.Counts {
				e.U64(v)
			}
		},
		func(d *snapio.Decoder) any {
			r := &MGossip{From: cnet.NodeID(d.I64()), Nodes: decNodes(d)}
			for k := d.Count(1 << 16); k > 0; k-- {
				r.Counts = append(r.Counts, d.U64())
			}
			return r
		})
	c.Register("memb.JoinReq", MJoinReq{},
		func(e *snapio.Encoder, m any) {
			r := m.(MJoinReq)
			e.I64(int64(r.From))
			e.Int(r.Size)
			e.I64(int64(r.MinID))
			encNodes(e, r.Members)
		},
		func(d *snapio.Decoder) any {
			return MJoinReq{From: cnet.NodeID(d.I64()), Size: d.Int(), MinID: cnet.NodeID(d.I64()), Members: decNodes(d)}
		})
	c.Register("memb.JoinOffer", MJoinOffer{},
		func(e *snapio.Encoder, m any) { encOffer(e, m.(MJoinOffer)) },
		func(d *snapio.Decoder) any { return decOffer(d) })
	c.Register("memb.JoinAsk", MJoinAsk{},
		func(e *snapio.Encoder, m any) { e.I64(int64(m.(MJoinAsk).From)) },
		func(d *snapio.Decoder) any { return MJoinAsk{From: cnet.NodeID(d.I64())} })
	c.Register("memb.Prepare", MPrepare{},
		func(e *snapio.Encoder, m any) {
			r := m.(MPrepare)
			e.I64(int64(r.From))
			e.U64(r.Ver)
			encNodes(e, r.Members)
			e.I64(int64(r.Subject))
			e.Bool(r.Add)
		},
		func(d *snapio.Decoder) any {
			return MPrepare{From: cnet.NodeID(d.I64()), Ver: d.U64(), Members: decNodes(d),
				Subject: cnet.NodeID(d.I64()), Add: d.Bool()}
		})
	c.Register("memb.Ack", MAck{},
		func(e *snapio.Encoder, m any) {
			r := m.(MAck)
			e.I64(int64(r.From))
			e.U64(r.Ver)
		},
		func(d *snapio.Decoder) any { return MAck{From: cnet.NodeID(d.I64()), Ver: d.U64()} })
	c.Register("memb.Commit", MCommit{},
		func(e *snapio.Encoder, m any) {
			r := m.(MCommit)
			e.I64(int64(r.From))
			e.U64(r.Ver)
			encNodes(e, r.Members)
		},
		func(d *snapio.Decoder) any {
			return MCommit{From: cnet.NodeID(d.I64()), Ver: d.U64(), Members: decNodes(d)}
		})
	c.Register("memb.NodeDown", MNodeDown{},
		func(e *snapio.Encoder, m any) {
			r := m.(MNodeDown)
			e.I64(int64(r.From))
			e.I64(int64(r.Node))
		},
		func(d *snapio.Decoder) any { return MNodeDown{From: cnet.NodeID(d.I64()), Node: cnet.NodeID(d.I64())} })
}

func encNodes(e *snapio.Encoder, ns []cnet.NodeID) {
	e.Int(len(ns))
	for _, n := range ns {
		e.I64(int64(n))
	}
}

func decNodes(d *snapio.Decoder) []cnet.NodeID {
	n := d.Count(1 << 16)
	if n == 0 {
		return nil
	}
	out := make([]cnet.NodeID, 0, n)
	for ; n > 0; n-- {
		out = append(out, cnet.NodeID(d.I64()))
	}
	return out
}

func encOffer(e *snapio.Encoder, o MJoinOffer) {
	e.I64(int64(o.From))
	e.U64(o.Ver)
	encNodes(e, o.Members)
}

func decOffer(d *snapio.Decoder) MJoinOffer {
	return MJoinOffer{From: cnet.NodeID(d.I64()), Ver: d.U64(), Members: decNodes(d)}
}

// SaveState serializes the shared segment.
func (p *Published) SaveState(e *snapio.Encoder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.U64(p.version)
	encNodes(e, p.members)
}

// LoadState restores SaveState's segment.
func (p *Published) LoadState(d *snapio.Decoder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.version = d.U64()
	p.members = decNodes(d)
}

// SaveState serializes the daemon.
func (d *Daemon) SaveState(e *snapio.Encoder) {
	if d.counts != nil { // only gossip mode keeps heartbeat counters
		d.SaveGossip(e)
		cnet.SaveTicker(e, d.hbT, "gossip round")
		return
	}
	e.U64(d.version)
	encNodes(e, d.members)
	seen := sortedNodeKeys(d.lastSeen)
	e.Int(len(seen))
	for _, n := range seen {
		e.I64(int64(n))
		e.Dur(d.lastSeen[n])
	}
	e.Bool(d.busy)
	e.Bool(d.wait != nil)
	if w := d.wait; w != nil {
		e.U64(w.ver)
		encNodes(e, w.proposed)
		acked := sortedNodeKeys(w.acked)
		e.Int(len(acked))
		for _, n := range acked {
			e.I64(int64(n))
			e.Bool(w.acked[n])
		}
		e.Int(w.need)
		e.I64(int64(w.subject))
		e.Bool(w.add)
	}
	e.Int(len(d.offers))
	for _, o := range d.offers {
		encOffer(e, o)
	}
	e.Bool(d.collecting)
	cnet.SaveTicker(e, d.hbT, "ring heartbeat")
	cnet.SaveTicker(e, d.seekT, "join seek")
	cnet.SaveSerial(e, d.offerSer)
	e.Int(len(d.commits))
	for _, ct := range d.commits {
		e.U64(ct.serial)
		e.U64(ct.ver)
		e.I64(int64(ct.subject))
		e.Bool(ct.add)
	}
}

// RestoreDaemon rebuilds a daemon from SaveState inside a snapshot
// restore. The shared segment is restored separately.
func RestoreDaemon(cfg Config, env cnet.RestoreEnv, pub *Published, dec *snapio.Decoder) *Daemon {
	d := newDaemon(cfg, env, pub)
	if d.cfg.Gossip {
		d.LoadGossip(dec)
		d.hbT = cnet.LoadTicker(dec, env, d.cfg.HBPeriod, d.gossipTick, "gossip round")
		return d
	}
	d.version = dec.U64()
	d.members = decNodes(dec)
	for k := dec.Count(1 << 16); k > 0; k-- {
		n := cnet.NodeID(dec.I64())
		d.lastSeen[n] = dec.Dur()
	}
	d.busy = dec.Bool()
	if dec.Bool() {
		w := &ackWait{ver: dec.U64(), proposed: decNodes(dec), acked: map[cnet.NodeID]bool{}}
		for k := dec.Count(1 << 16); k > 0; k-- {
			n := cnet.NodeID(dec.I64())
			w.acked[n] = dec.Bool()
		}
		w.need = dec.Int()
		w.subject = cnet.NodeID(dec.I64())
		w.add = dec.Bool()
		d.wait = w
	}
	for k := dec.Count(1 << 16); k > 0; k-- {
		d.offers = append(d.offers, decOffer(dec))
	}
	d.collecting = dec.Bool()
	d.hbT = cnet.LoadTicker(dec, env, d.cfg.HBPeriod, d.tick, "ring heartbeat")
	// The seek ticker was created with the fast boot period; every pass
	// retimes it explicitly.
	d.seekT = cnet.LoadTicker(dec, env, d.cfg.SeekPeriod/4, d.seek, "join seek")
	d.offerSer = cnet.LoadSerial(dec, env, d.closeOffers)
	for k := dec.Count(1 << 16); k > 0; k-- {
		ct := &commitTimer{d: d, serial: dec.U64(), ver: dec.U64(), subject: cnet.NodeID(dec.I64()), add: dec.Bool()}
		env.RestoreTimer(ct.serial, ct.fire)
		d.commits = append(d.commits, ct)
	}
	return d
}

// SaveState serializes the client's poll loop.
func (c *Client) SaveState(e *snapio.Encoder) { cnet.SaveTicker(e, c.pollT, "membership poll") }

// RestoreClient rebuilds a client from SaveState inside a snapshot
// restore; the application re-subscribes.
func RestoreClient(env cnet.RestoreEnv, pub *Published, poll time.Duration, d *snapio.Decoder) *Client {
	if poll <= 0 {
		poll = time.Second
	}
	c := &Client{env: env, pub: pub, poll: poll}
	c.pollT = cnet.LoadTicker(d, env, poll, c.pollTick, "membership poll")
	return c
}
