package server

import (
	"sort"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/snapio"
	"press/internal/trace"
)

// Snapshot support. The server serializes its protocol state — cache,
// directory, view, peers, in-flight requests, pooled disk/admit
// continuations, ring detector — but no callbacks: those are rebuilt by
// Restore, which constructs an unstarted server on the restored process
// environment, re-registers its listeners, re-attaches handlers to every
// restored connection, and re-claims its pending timers by serial.
//
// Phase 1 covers the INDEP and COOP(+ring) configurations; a server with
// queue monitoring or an external membership view refuses to snapshot.

// RegisterMessages registers every PRESS wire message with the snapshot
// codec, so mailbox entries, connection buffers, and send queues can
// carry them. Pooled messages decode as pool-less records (their Release
// leaks to the GC, the pre-pooling behaviour).
func RegisterMessages(c *snapio.MsgCodec) {
	c.Register("press.Req", (*ReqMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*ReqMsg)
			e.U64(r.ID)
			e.I64(int64(r.Doc))
			e.Bool(r.Probe)
		},
		func(d *snapio.Decoder) any {
			return &ReqMsg{ID: d.U64(), Doc: trace.DocID(d.I64()), Probe: d.Bool()}
		})
	c.Register("press.Resp", (*RespMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*RespMsg)
			e.U64(r.ID)
			e.Bool(r.OK)
			e.Bool(r.Probe)
			encNodes(e, r.View)
		},
		func(d *snapio.Decoder) any {
			return &RespMsg{ID: d.U64(), OK: d.Bool(), Probe: d.Bool(), View: decNodes(d)}
		})
	c.Register("press.Hello", HelloMsg{},
		func(e *snapio.Encoder, m any) {
			h := m.(HelloMsg)
			e.I64(int64(h.From))
			e.Int(len(h.CacheDocs))
			for _, doc := range h.CacheDocs {
				e.I64(int64(doc))
			}
		},
		func(d *snapio.Decoder) any {
			h := HelloMsg{From: cnet.NodeID(d.I64())}
			if n := d.Count(1 << 24); n > 0 {
				h.CacheDocs = make([]trace.DocID, 0, n)
				for ; n > 0; n-- {
					h.CacheDocs = append(h.CacheDocs, trace.DocID(d.I64()))
				}
			}
			return h
		})
	c.Register("press.Fwd", (*FwdMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*FwdMsg)
			e.U64(r.ID)
			e.I64(int64(r.Doc))
			e.Int(r.Load)
			e.I64(int64(r.Origin))
		},
		func(d *snapio.Decoder) any {
			return &FwdMsg{ID: d.U64(), Doc: trace.DocID(d.I64()), Load: d.Int(), Origin: cnet.NodeID(d.I64())}
		})
	c.Register("press.FwdReply", (*FwdReplyMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*FwdReplyMsg)
			e.U64(r.ID)
			e.I64(int64(r.Doc))
			e.Bool(r.OK)
			e.Int(r.Load)
		},
		func(d *snapio.Decoder) any {
			return &FwdReplyMsg{ID: d.U64(), Doc: trace.DocID(d.I64()), OK: d.Bool(), Load: d.Int()}
		})
	c.Register("press.Announce", (*AnnounceMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*AnnounceMsg)
			e.I64(int64(r.From))
			e.I64(int64(r.Doc))
			e.Bool(r.Cached)
			e.Int(r.Load)
		},
		func(d *snapio.Decoder) any {
			return &AnnounceMsg{From: cnet.NodeID(d.I64()), Doc: trace.DocID(d.I64()), Cached: d.Bool(), Load: d.Int()}
		})
	c.Register("press.HB", (*HBMsg)(nil),
		func(e *snapio.Encoder, m any) {
			r := m.(*HBMsg)
			e.I64(int64(r.From))
			e.Int(r.Load)
		},
		func(d *snapio.Decoder) any {
			return &HBMsg{From: cnet.NodeID(d.I64()), Load: d.Int()}
		})
	c.Register("press.Exclude", ExcludeMsg{},
		func(e *snapio.Encoder, m any) {
			r := m.(ExcludeMsg)
			e.I64(int64(r.From))
			e.I64(int64(r.Dead))
		},
		func(d *snapio.Decoder) any {
			return ExcludeMsg{From: cnet.NodeID(d.I64()), Dead: cnet.NodeID(d.I64())}
		})
	c.Register("press.JoinReq", JoinReqMsg{},
		func(e *snapio.Encoder, m any) {
			e.I64(int64(m.(JoinReqMsg).From))
		},
		func(d *snapio.Decoder) any {
			return JoinReqMsg{From: cnet.NodeID(d.I64())}
		})
	c.Register("press.JoinResp", JoinRespMsg{},
		func(e *snapio.Encoder, m any) {
			r := m.(JoinRespMsg)
			e.I64(int64(r.From))
			encNodes(e, r.View)
		},
		func(d *snapio.Decoder) any {
			return JoinRespMsg{From: cnet.NodeID(d.I64()), View: decNodes(d)}
		})
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

// timerSerial extracts the proc-clock serial from a retained handle.
func timerSerial(h any, what string) uint64 {
	ts, ok := h.(interface{ TimerSerial() uint64 })
	if !ok {
		snapio.Failf("server: %s handle %T carries no timer serial", what, h)
	}
	return ts.TimerSerial()
}

func encConn(ctx *snapio.Ctx, c cnet.Conn) {
	ctx.Enc.Bool(c != nil)
	if c != nil {
		ctx.Enc.U64(ctx.Conns.Ref(c))
	}
}

func decConn(ctx *snapio.Ctx) cnet.Conn {
	if !ctx.Dec.Bool() {
		return nil
	}
	ref := ctx.Dec.U64()
	c, ok := ctx.Conns.Obj(ref).(cnet.Conn)
	if !ok {
		snapio.Failf("server: conn ref %d is not a conn", ref)
	}
	return c
}

func encTimer(e *snapio.Encoder, h any, what string) {
	e.Bool(h != nil)
	if h != nil {
		e.U64(timerSerial(h, what))
	}
}

// SaveState serializes the server. Pooled messages in queues are encoded
// by the message codec; retained timer handles by serial; connections as
// table references. Pending disk reads register their continuation
// records in ctx.Owners for the disk section, which saves later.
func (s *Server) SaveState(ctx *snapio.Ctx) {
	if s.qm != nil {
		snapio.Failf("server %d: snapshotting with queue monitoring is not supported yet", s.cfg.Self)
	}
	if s.memb != nil {
		snapio.Failf("server %d: snapshotting with a membership view is not supported yet", s.cfg.Self)
	}
	e := ctx.Enc
	e.Bool(s.joined)
	e.U64(s.nextID)
	e.Int(s.active)
	st := &s.stats
	for _, v := range []uint64{st.Served, st.LocalHits, st.RemoteServed, st.DiskReads,
		st.ForwardsOut, st.PeerServes, st.Rerouted, st.Excludes, st.Includes} {
		e.U64(v)
	}

	encNodes(e, s.sortedView())

	docs := s.cache.Docs()
	e.Int(len(docs))
	for _, doc := range docs {
		e.I64(int64(doc))
	}

	// The directory's word count is derived from cfg.Nodes on both ends,
	// so the layouts need no discriminator: one mask word per entry in
	// the faithful ≤64-node shape, s.dir.words in the wide shape.
	if s.dir.words > 1 {
		dirDocs := make([]trace.DocID, 0, len(s.dir.wide))
		for doc := range s.dir.wide {
			dirDocs = append(dirDocs, doc)
		}
		sort.Slice(dirDocs, func(i, j int) bool { return dirDocs[i] < dirDocs[j] })
		e.Int(len(dirDocs))
		for _, doc := range dirDocs {
			e.I64(int64(doc))
			for _, w := range s.dir.wide[doc] {
				e.U64(w)
			}
		}
	} else {
		e.Int(s.dir.held)
		for doc, w := range s.dir.bits {
			if w != 0 {
				e.I64(int64(doc))
				e.U64(w)
			}
		}
	}

	peerIDs := make([]cnet.NodeID, 0, len(s.peers))
	for n, p := range s.peers {
		if p != nil {
			peerIDs = append(peerIDs, cnet.NodeID(n))
		}
	}
	e.Int(len(peerIDs))
	for _, n := range peerIDs {
		p := s.peers[n]
		e.I64(int64(n))
		encConn(ctx, p.conn)
		e.Bool(p.dialing)
		encTimer(e, p.retry, "peer retry")
		e.Int(p.load)
		e.Int(p.qlen())
		for i := p.sendHead; i < len(p.sendQ); i++ {
			om := p.sendQ[i]
			ctx.Msgs.Encode(e, om.m)
			e.Int(om.size)
			e.Bool(om.isReq)
			e.U64(om.reqID)
		}
	}

	type inbound struct {
		ref  uint64
		node cnet.NodeID
	}
	ins := make([]inbound, 0, len(s.inboundFrom))
	for c, n := range s.inboundFrom {
		ins = append(ins, inbound{ctx.Conns.Ref(c), n})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].node != ins[j].node {
			return ins[i].node < ins[j].node
		}
		return ins[i].ref < ins[j].ref
	})
	e.Int(len(ins))
	for _, in := range ins {
		e.U64(in.ref)
		e.I64(int64(in.node))
	}

	reqIDs := make([]uint64, 0, len(s.inflight))
	for id := range s.inflight {
		reqIDs = append(reqIDs, id)
	}
	sort.Slice(reqIDs, func(i, j int) bool { return reqIDs[i] < reqIDs[j] })
	e.Int(len(reqIDs))
	for _, id := range reqIDs {
		rs := s.inflight[id]
		e.U64(rs.id)
		e.I64(int64(rs.doc))
		encConn(ctx, rs.client)
		e.I64(int64(rs.forwardedTo))
		e.U64(rs.gen)
	}

	e.Int(s.QueuedAccepts())
	for i := s.acceptHead; i < len(s.acceptQ); i++ {
		encConn(ctx, s.acceptQ[i].conn)
		ctx.Msgs.Encode(e, s.acceptQ[i].msg)
	}

	e.Int(len(s.diskOps))
	for _, op := range s.diskOps {
		e.U64(ctx.Owners.Ref(op))
		e.I64(int64(op.doc))
		e.Bool(op.ok)
		e.Bool(op.peerServe)
		if op.peerServe {
			e.I64(int64(op.from))
			e.U64(op.id)
		} else {
			live := op.st != nil && op.st.gen == op.stGen
			e.Bool(live)
			if live {
				e.U64(op.st.id)
			}
			e.U64(op.stGen)
		}
		encTimer(e, op.bounceT, "disk bounce")
		encTimer(e, op.requeueT, "disk requeue")
	}

	e.Int(len(s.admitOps))
	for _, op := range s.admitOps {
		encConn(ctx, op.conn)
		ctx.Msgs.Encode(e, op.msg)
		encTimer(e, op.runT, "deferred admission")
	}

	r := &s.ring
	e.Bool(r.enabled)
	e.I64(int64(r.pred))
	e.I64(int64(r.succ))
	e.Dur(r.lastHB)
	if r.enabled {
		hb, ok := r.hb.(interface {
			Stopped() bool
			PendingTimer() clock.Timer
		})
		if !ok {
			snapio.Failf("server %d: ring ticker %T is not restorable", s.cfg.Self, r.hb)
		}
		e.Bool(hb.Stopped())
		encTimer(e, hb.PendingTimer(), "ring heartbeat")
	}

	encTimer(e, s.joinTimer, "join timeout")
}

// SaveHusk serializes the post-mortem observables of a dead incarnation.
// After an application crash the harness holder still points at the old
// *Server, and the driver's operator-reset and result-assembly paths read
// View() and SendQueueLen() from it; nothing else of the corpse is
// reachable. The husk carries exactly those observables plus the counters.
func (s *Server) SaveHusk(ctx *snapio.Ctx) {
	e := ctx.Enc
	st := &s.stats
	for _, v := range []uint64{st.Served, st.LocalHits, st.RemoteServed, st.DiskReads,
		st.ForwardsOut, st.PeerServes, st.Rerouted, st.Excludes, st.Includes} {
		e.U64(v)
	}
	encNodes(e, s.sortedView())
	peerIDs := make([]cnet.NodeID, 0, len(s.peers))
	for n, p := range s.peers {
		if p != nil {
			peerIDs = append(peerIDs, cnet.NodeID(n))
		}
	}
	e.Int(len(peerIDs))
	for _, n := range peerIDs {
		e.I64(int64(n))
		e.Int(s.peers[n].qlen())
	}
}

// RestoreHusk rebuilds the observable shell SaveHusk captured. The husk
// is inert — no environment, no listeners, no timers — it only answers
// the accessors a dead incarnation can still be asked.
func RestoreHusk(ctx *snapio.Ctx) *Server {
	d := ctx.Dec
	s := &Server{}
	st := &s.stats
	for _, f := range []*uint64{&st.Served, &st.LocalHits, &st.RemoteServed, &st.DiskReads,
		&st.ForwardsOut, &st.PeerServes, &st.Rerouted, &st.Excludes, &st.Includes} {
		*f = d.U64()
	}
	s.sorted = decNodes(d)
	for _, n := range s.sorted {
		s.viewAdd(n)
	}
	for k := d.Count(1 << 16); k > 0; k-- {
		n := cnet.NodeID(d.I64())
		s.setPeer(n, &peer{id: n, sendQ: make([]outMsg, d.Int())})
	}
	return s
}

// RestoreEnv is the process environment surface the restore path needs:
// the normal cnet.Env plus the machine's restore registrations (implemented
// by machine.Env during a restore; structural so this package does not
// import machine).
type RestoreEnv interface {
	cnet.Env
	RestoreTimer(serial uint64, fn func()) clock.Timer
	RestoreTicker(period time.Duration, fn func(), stopped bool) clock.Ticker
	RestoreDialer(to cnet.NodeID, port string, h cnet.StreamHandlers, result func(cnet.Conn, error))
	RestoreConn(c cnet.Conn, h cnet.StreamHandlers)
	RestoreConnList() []cnet.Conn
}

// decTimer restores a retained timer handle: nil when none was saved,
// otherwise re-claimed by serial (a live pending timer re-arms at its
// exact kernel slot; a spent or stopped one yields an inert handle).
func decTimer(d *snapio.Decoder, env RestoreEnv, fn func()) timerHandle {
	if !d.Bool() {
		return nil
	}
	return env.RestoreTimer(d.U64(), fn)
}

// Restore rebuilds a server from SaveState inside a snapshot restore:
// the constructed server re-registers its listeners on env (registration
// only — no events), loads its protocol state, re-attaches stream
// handlers to every restored connection, and re-claims its timers.
func Restore(cfg Config, env RestoreEnv, disk DiskArray, memb MembershipView, ctx *snapio.Ctx) *Server {
	if memb != nil {
		snapio.Failf("server: restoring with a membership view is not supported yet")
	}
	s := newServer(cfg, env, disk, memb)
	if s.qm != nil {
		snapio.Failf("server %d: restoring with queue monitoring is not supported yet", s.cfg.Self)
	}
	s.env.Listen(PortHTTP, s.acceptClient)
	if s.cfg.Cooperative {
		s.env.Listen(PortPress, s.acceptPeer)
		s.env.BindDatagram(PortControl, s.onControl)
		s.env.BindDatagram(PortHB, s.onHeartbeat)
	}

	d := ctx.Dec
	s.joined = d.Bool()
	s.nextID = d.U64()
	s.active = d.Int()
	st := &s.stats
	for _, f := range []*uint64{&st.Served, &st.LocalHits, &st.RemoteServed, &st.DiskReads,
		&st.ForwardsOut, &st.PeerServes, &st.Rerouted, &st.Excludes, &st.Includes} {
		*f = d.U64()
	}

	for _, n := range decNodes(d) {
		s.viewAdd(n)
	}

	nd := d.Count(1 << 24)
	docs := make([]trace.DocID, nd)
	for i := range docs {
		docs[i] = trace.DocID(d.I64())
	}
	// Docs listed MRU-first; inserting oldest-first reproduces the order.
	for i := len(docs) - 1; i >= 0; i-- {
		s.cache.Insert(docs[i])
	}

	if s.dir.words > 1 {
		for k := d.Count(1 << 24); k > 0; k-- {
			doc := trace.DocID(d.I64())
			mask := make([]uint64, s.dir.words)
			for i := range mask {
				mask[i] = d.U64()
			}
			s.dir.wide[doc] = mask
		}
	} else {
		for k := d.Count(1 << 24); k > 0; k-- {
			doc := trace.DocID(d.I64())
			if doc < 0 || doc >= 1<<24 {
				snapio.Failf("directory doc %d out of range", doc)
			}
			s.dir.setMask(doc, d.U64())
		}
	}

	for k := d.Count(1 << 16); k > 0; k-- {
		p := s.peer(cnet.NodeID(d.I64()))
		p.conn = decConn(ctx)
		cnet.RetainConn(p.conn) // no-op on snapshot-built conns; keeps the pin balanced
		p.dialing = d.Bool()
		p.retry = decTimer(d, env, p.redial)
		p.load = d.Int()
		for q := d.Count(1 << 20); q > 0; q-- {
			om := outMsg{m: ctx.Msgs.Decode(d), size: d.Int(), isReq: d.Bool(), reqID: d.U64()}
			p.sendQ = append(p.sendQ, om)
			if om.isReq {
				p.reqInQ++
			}
		}
		if p.dialing {
			env.RestoreDialer(p.id, PortPress, p.h, p.onDial)
		}
	}

	for k := d.Count(1 << 16); k > 0; k-- {
		ref := d.U64()
		c, ok := ctx.Conns.Obj(ref).(cnet.Conn)
		if !ok {
			snapio.Failf("server: inbound conn ref %d is not a conn", ref)
		}
		s.inboundFrom[c] = cnet.NodeID(d.I64())
	}

	for k := d.Count(1 << 20); k > 0; k-- {
		rs := &reqState{
			id:          d.U64(),
			doc:         trace.DocID(d.I64()),
			client:      decConn(ctx),
			forwardedTo: cnet.NodeID(d.I64()),
			gen:         d.U64(),
		}
		s.inflight[rs.id] = rs
		if rs.client != nil {
			s.clientOf[rs.client] = rs.id
			cnet.RetainConn(rs.client) // no-op on snapshot-built conns; keeps the pin balanced with admit
		}
	}

	for k := d.Count(1 << 20); k > 0; k-- {
		pr := pendingReq{conn: decConn(ctx)}
		pr.msg, _ = ctx.Msgs.Decode(d).(*ReqMsg)
		s.acceptQ = append(s.acceptQ, pr)
	}

	for k := d.Count(1 << 20); k > 0; k-- {
		ownerID := d.U64()
		op := s.getDiskOp()
		op.doc = trace.DocID(d.I64())
		op.ok = d.Bool()
		op.peerServe = d.Bool()
		if op.peerServe {
			op.from = cnet.NodeID(d.I64())
			op.id = d.U64()
		} else {
			live := d.Bool()
			var liveID uint64
			if live {
				liveID = d.U64()
			}
			op.stGen = d.U64()
			if live {
				op.st = s.inflight[liveID]
				if op.st == nil {
					snapio.Failf("server %d: disk op for unknown request %d", s.cfg.Self, liveID)
				}
			} else {
				// The request died while the read was in flight: any state
				// with a newer generation reproduces the stale-guard path.
				op.st = &reqState{forwardedTo: cnet.None, gen: op.stGen + 1}
			}
		}
		op.bounceT = decTimer(d, env, op.bounce)
		op.requeueT = decTimer(d, env, op.requeue)
		ctx.Owners.Put(ownerID, op)
	}

	for k := d.Count(1 << 20); k > 0; k-- {
		op := s.getAdmitOp()
		op.conn = decConn(ctx)
		cnet.RetainConn(op.conn) // no-op on snapshot-built conns; keeps the pin balanced with putAdmitOp
		op.msg, _ = ctx.Msgs.Decode(d).(*ReqMsg)
		op.runT = decTimer(d, env, op.run)
	}

	r := &s.ring
	r.s = s
	r.enabled = d.Bool()
	r.pred = cnet.NodeID(d.I64())
	r.succ = cnet.NodeID(d.I64())
	r.lastHB = d.Dur()
	if r.enabled {
		stopped := d.Bool()
		hb := env.RestoreTicker(s.cfg.HeartbeatPeriod, r.tick, stopped)
		rt, ok := hb.(interface {
			FireFunc() func()
			AdoptTimer(clock.Timer)
		})
		if !ok {
			snapio.Failf("server %d: restored ring ticker %T lacks a timer-adoption surface", s.cfg.Self, hb)
		}
		if t := decTimer(d, env, rt.FireFunc()); t != nil {
			rt.AdoptTimer(t)
		}
		r.hb = hb
	}

	s.joinTimer = decTimer(d, env, s.joinTimeout)

	// Re-attach stream handlers to every connection the process carried
	// across the snapshot: inbound peer streams get the shared peer
	// handlers, established outbound peer streams each peer's own, and
	// everything else is a client connection.
	peerConns := make(map[cnet.Conn]*peer, len(s.peers))
	for _, p := range s.peers {
		if p != nil && p.conn != nil {
			peerConns[p.conn] = p
		}
	}
	for _, c := range env.RestoreConnList() {
		switch {
		case peerConns[c] != nil:
			env.RestoreConn(c, peerConns[c].h)
		default:
			if n, inbound := s.inboundFrom[c]; inbound {
				env.RestoreConn(c, s.inboundHandlers(&inPeer{from: n, known: true}))
			} else {
				env.RestoreConn(c, s.clientH)
			}
		}
	}
	return s
}
