package server

import (
	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/trace"
)

// acceptClient handles client-facing (or front-end-forwarded, or
// FME-probe) connections. One request per connection, HTTP/1.0 style.
//
// Shedding happens here, at accept time: when the service slots and the
// backlog are both full, the connection is refused like a kernel
// overflowing its SYN queue — without costing the main coordinating
// thread anything. This keeps heartbeats timely under overload; without
// it, deep overload delays the heartbeat path enough to splinter the
// cluster, which is not a behaviour the paper's testbed exhibited.
func (s *Server) acceptClient(c cnet.Conn) cnet.StreamHandlers {
	if s.active >= s.cfg.MaxConcurrent && s.QueuedAccepts() >= s.cfg.AcceptBacklog {
		c.Close()
		return cnet.StreamHandlers{}
	}
	return s.clientH
}

func (s *Server) onClientMsg(c cnet.Conn, m cnet.Message) {
	req, ok := m.(*ReqMsg)
	if !ok {
		return
	}
	s.handleRequest(c, req)
}

func (s *Server) onClientClose(c cnet.Conn, err error) {
	// Client gave up (timeout) or finished: release anything the request
	// still holds.
	if id, ok := s.clientOf[c]; ok {
		delete(s.clientOf, c)
		if st := s.inflight[id]; st != nil {
			cnet.ReleaseConn(c) // pin taken when admit stored it
			st.client = nil
			s.finish(st, false)
		}
	}
	// Also drop it from the accept queue if it never got a slot.
	for i := s.acceptHead; i < len(s.acceptQ); i++ {
		if s.acceptQ[i].conn == c {
			last := len(s.acceptQ) - 1
			copy(s.acceptQ[i:], s.acceptQ[i+1:])
			s.acceptQ[last] = pendingReq{}
			s.acceptQ = s.acceptQ[:last]
			break
		}
	}
}

func (s *Server) handleRequest(c cnet.Conn, req *ReqMsg) {
	if req.Probe {
		// FME/S-FME liveness probe: answered inline by the main thread,
		// no slot, reporting the cooperation set.
		s.env.Charge(s.cfg.Cost.Control)
		resp := NewRespMsg(&s.respPool)
		resp.ID, resp.OK, resp.Probe, resp.View = req.ID, true, true, s.View()
		req.Release()
		c.TrySend(resp, sizeResp)
		return
	}
	if s.active >= s.cfg.MaxConcurrent {
		if s.QueuedAccepts() >= s.cfg.AcceptBacklog {
			// Listen backlog full: shed the connection cheaply, like a
			// kernel-level refusal, before any parsing happens.
			s.env.Charge(s.cfg.Cost.Control)
			req.Release()
			c.Close()
			return
		}
		// No service slot: the request waits unserved. Under a stuck-peer
		// fault this queue is where cluster throughput goes to die. The
		// accept/parse cost is charged on admission.
		s.queueAccept(pendingReq{conn: c, msg: req})
		return
	}
	s.env.Charge(s.cfg.Cost.Accept)
	s.admit(c, req)
}

// queueAccept appends to the accept backlog. The backlog is a queue
// consumed at acceptHead; a standing backlog never drains fully, so
// append-only growth would reallocate forever. When the storage is full,
// slide the backlog over the spent prefix and zero the vacated tail, as
// the process mailbox does.
func (s *Server) queueAccept(pr pendingReq) {
	if s.acceptHead > 0 && len(s.acceptQ) == cap(s.acceptQ) {
		n := copy(s.acceptQ, s.acceptQ[s.acceptHead:])
		clear(s.acceptQ[n:])
		s.acceptQ = s.acceptQ[:n]
		s.acceptHead = 0
	}
	s.acceptQ = append(s.acceptQ, pr)
}

func (s *Server) admit(c cnet.Conn, req *ReqMsg) {
	s.active++
	s.nextID++
	st := s.getReq()
	st.id, st.doc, st.client = s.nextID, req.Doc, c
	// The request record holds the conn until finish. The pin matters even
	// though clientOf normally clears st.client on close: a deferred
	// admission can store a conn whose close already dispatched (it was
	// popped from the accept queue before the close arrived), and then
	// nothing ever clears st.client — without the pin the pair would
	// recycle under the record and respond would send into a reused conn.
	cnet.RetainConn(c)
	req.Release()
	s.inflight[st.id] = st
	s.clientOf[c] = st.id
	s.route(st)
}

func (s *Server) getReq() *reqState {
	if n := len(s.reqFree); n > 0 {
		st := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return st
	}
	return &reqState{forwardedTo: cnet.None}
}

// putReq recycles a finished request's state. The generation bump
// invalidates any disk continuation still pointing at st.
func (s *Server) putReq(st *reqState) {
	st.gen++
	st.client = nil
	st.forwardedTo = cnet.None
	s.reqFree = append(s.reqFree, st)
}

// route decides how to serve st: local cache, a caching peer, the
// document's home node, or the local disk (§3's request distribution).
func (s *Server) route(st *reqState) {
	if s.cache.Has(st.doc) {
		s.env.Charge(s.cfg.Cost.LocalHit)
		s.stats.LocalHits++
		s.respond(st, true)
		return
	}
	if !s.cfg.Cooperative {
		s.diskServe(st)
		return
	}
	if target, ok := s.pickService(st.doc); ok {
		s.forward(st, target)
		return
	}
	s.diskServe(st)
}

// diskServe reads st's document from the local disk and responds.
func (s *Server) diskServe(st *reqState) {
	op := s.getDiskOp()
	op.doc, op.st, op.stGen = st.doc, st, st.gen
	s.diskRead(op)
}

// pickService chooses the service node for a document we don't cache:
// the least-loaded peer known to cache it, else the document's home node
// (hash placement), unless queue monitoring says to route away.
func (s *Server) pickService(doc trace.DocID) (cnet.NodeID, bool) {
	view := s.sortedView()
	if len(view) <= 1 {
		return cnet.None, false
	}
	best := cnet.None
	bestLoad := int(^uint(0) >> 1)
	s.dir.eachHolder(doc, func(n cnet.NodeID) {
		if n == s.cfg.Self || !s.inView(n) {
			return
		}
		if s.qm != nil && s.qm.ShouldReroute(n) {
			s.stats.Rerouted++
			return
		}
		if l := s.peer(n).load; l < bestLoad {
			best, bestLoad = n, l
		}
	})
	if best != cnet.None {
		return best, true
	}
	home := view[int(doc)%len(view)]
	if home == s.cfg.Self {
		return cnet.None, false
	}
	if s.qm != nil && s.qm.ShouldReroute(home) {
		s.stats.Rerouted++
		return cnet.None, false
	}
	return home, true
}

func (s *Server) forward(st *reqState, target cnet.NodeID) {
	s.env.Charge(s.cfg.Cost.Forward)
	st.forwardedTo = target
	s.stats.ForwardsOut++
	m := NewFwdMsg(&s.fwdPool)
	m.ID, m.Doc, m.Load = st.id, st.doc, s.active
	m.Origin = cnet.None // first hop; pool recycling zeroes the field
	s.enqueue(target, outMsg{m: m, size: sizeFwd, isReq: true, reqID: st.id})
}

// completeForwarded handles a service node's reply. In the sharded
// protocol the reply may come from a holder the home node relayed to —
// a node other than the one we forwarded to — so the sender check
// relaxes to "still awaiting a forward at all".
func (s *Server) completeForwarded(from cnet.NodeID, msg *FwdReplyMsg) {
	st := s.inflight[msg.ID]
	if st == nil {
		return // request already dead (client timeout)
	}
	if s.cfg.Sharded {
		if st.forwardedTo == cnet.None {
			return // rerouted meanwhile; a newer path owns the request
		}
	} else if st.forwardedTo != from {
		return // rerouted elsewhere
	}
	s.env.Charge(s.cfg.Cost.Reply)
	s.stats.RemoteServed++
	s.respond(st, msg.OK)
}

// servePeer is the service-node half of a forwarded request. Under the
// sharded protocol the home node additionally acts as directory
// authority: on a local miss it relays the forward to a known holder
// (stamping Origin so the holder replies straight to the initial node)
// before falling back to its own disks. A relayed forward that loses
// its holder dies by client timeout — the home keeps no per-request
// state for it.
func (s *Server) servePeer(from cnet.NodeID, msg *FwdMsg) {
	replyTo := from
	if msg.Origin != cnet.None {
		replyTo = msg.Origin
	}
	if s.cache.Has(msg.Doc) {
		s.env.Charge(s.cfg.Cost.PeerServe)
		s.replyPeer(replyTo, msg.ID, msg.Doc, true)
		return
	}
	if s.cfg.Sharded && msg.Origin == cnet.None {
		if holder, ok := s.pickHolder(msg.Doc, from); ok {
			s.env.Charge(s.cfg.Cost.Forward)
			m := NewFwdMsg(&s.fwdPool)
			m.ID, m.Doc, m.Load = msg.ID, msg.Doc, s.active
			m.Origin = from
			s.enqueue(holder, outMsg{m: m, size: sizeFwd, isReq: true})
			return
		}
	}
	// Miss at the service node: read and start caching (the announce
	// happens when the read completes).
	s.env.Charge(s.cfg.Cost.PeerServe)
	op := s.getDiskOp()
	op.doc, op.peerServe, op.from, op.id = msg.Doc, true, replyTo, msg.ID
	s.diskRead(op)
}

// pickHolder chooses the least-loaded node recorded as caching doc,
// excluding ourselves and the requester (who just missed on it) and
// honouring queue monitoring — the sharded home node's relay target.
func (s *Server) pickHolder(doc trace.DocID, origin cnet.NodeID) (cnet.NodeID, bool) {
	best := cnet.None
	bestLoad := int(^uint(0) >> 1)
	s.dir.eachHolder(doc, func(n cnet.NodeID) {
		if n == s.cfg.Self || n == origin || !s.inView(n) {
			return
		}
		if s.qm != nil && s.qm.ShouldReroute(n) {
			s.stats.Rerouted++
			return
		}
		if l := s.peer(n).load; l < bestLoad {
			best, bestLoad = n, l
		}
	})
	return best, best != cnet.None
}

// replyPeer answers a forwarded request back to the requesting node.
func (s *Server) replyPeer(from cnet.NodeID, id uint64, doc trace.DocID, ok bool) {
	if !s.inView(from) {
		return
	}
	s.stats.PeerServes++
	m := NewFwdReplyMsg(&s.fwdRepPool)
	m.ID, m.Doc, m.OK, m.Load = id, doc, ok, s.active
	s.enqueue(from, outMsg{m: m, size: sizeResp + int(s.cfg.Catalog.Size)})
}

// diskKey maps a document to its placement key on the local disks. The
// low bits of the document ID drive cooperative-cache ownership (home =
// view[doc mod n]), so the disk placement must use different bits or each
// node would exercise only one of its disks.
func diskKey(doc trace.DocID) int { return int(doc) >> 3 }

// diskOp is a pooled disk-read continuation: one record carries a read
// through submission, the queue-full stall/retry loop, and the completion
// bounce, with every callback built once at record creation.
type diskOp struct {
	s   *Server
	doc trace.DocID
	ok  bool

	// Local-serve completion. stGen guards against the request dying
	// (client timeout) and st being recycled while the read is in flight.
	st    *reqState
	stGen uint64

	// Peer-serve completion.
	peerServe bool
	from      cnet.NodeID
	id        uint64

	onDone  func(ok bool) // disk context: bounce through the mailbox
	bounce  func()        // server context: finish the read
	notify  func()        // disk context: queue space freed
	requeue func()        // server context: retry the submission

	// Snapshot identity: slot indexes s.diskOps while the op is live, and
	// the bounce/requeue timer serials let a restore re-claim them (0:
	// none pending).
	slot       int
	bounceSer  uint64
	requeueSer uint64
}

func (s *Server) getDiskOp() *diskOp {
	var op *diskOp
	if n := len(s.diskFree); n > 0 {
		op = s.diskFree[n-1]
		s.diskFree = s.diskFree[:n-1]
	} else {
		op = &diskOp{s: s}
		op.onDone = func(ok bool) {
			// Disk completions arrive from the disk subsystem's context;
			// bounce them through the mailbox. The serial is kept only in
			// snapshot-tagged (sim) worlds: there the disk context is the
			// single sim goroutine, while on a live stack this closure runs
			// on a real timer goroutine and the write would race putDiskOp.
			op.ok = ok
			ser := clock.Schedule(op.s.env.Clock(), 0, op.bounce)
			if op.s.diskTag != nil {
				op.bounceSer = ser
			}
		}
		op.bounce = func() { op.s.diskDone(op) }
		op.notify = func() {
			// Queue space freed: unblock the main thread, then retry this same
			// operation as its own work item.
			op.s.env.Resume()
			ser := clock.Schedule(op.s.env.Clock(), 0, op.requeue)
			if op.s.diskTag != nil {
				op.requeueSer = ser
			}
		}
		op.requeue = func() { op.s.diskRead(op) }
	}
	op.slot = len(s.diskOps)
	s.diskOps = append(s.diskOps, op)
	return op
}

func (s *Server) putDiskOp(op *diskOp) {
	last := len(s.diskOps) - 1
	moved := s.diskOps[last]
	s.diskOps[op.slot] = moved
	moved.slot = op.slot
	s.diskOps[last] = nil
	s.diskOps = s.diskOps[:last]
	op.st = nil
	op.peerServe = false
	op.bounceSer, op.requeueSer = 0, 0
	s.diskFree = append(s.diskFree, op)
}

// diskRead submits a read, blocking the main thread (Stall) when the disk
// queue is full — the behaviour at the heart of Figure 4.
func (s *Server) diskRead(op *diskOp) {
	if s.diskTag != nil {
		s.diskTag.SetNextOwner(op)
	}
	if s.disk.Read(diskKey(op.doc), op.onDone) {
		return
	}
	s.env.Stall()
	if s.diskTag != nil {
		s.diskTag.SetNextOwner(op)
	}
	s.disk.NotifySpace(op.notify)
}

// diskDone completes a read in server context.
func (s *Server) diskDone(op *diskOp) {
	s.stats.DiskReads++
	ok, doc := op.ok, op.doc
	if op.peerServe {
		from, id := op.from, op.id
		s.putDiskOp(op)
		s.env.Charge(s.cfg.Cost.DiskDone)
		if ok {
			s.insertCache(doc)
		}
		s.replyPeer(from, id, doc, ok)
		return
	}
	st, gen := op.st, op.stGen
	s.putDiskOp(op)
	s.env.Charge(s.cfg.Cost.DiskDone)
	if ok {
		s.insertCache(doc)
	}
	if st.gen != gen {
		return // request finished (client timeout) while the read was in flight
	}
	s.respond(st, ok)
}

// insertCache caches doc locally and broadcasts the caching decision(s).
func (s *Server) insertCache(doc trace.DocID) {
	evicted, didEvict := s.cache.Insert(doc)
	if s.cfg.Cooperative {
		s.announce(doc, true)
		if didEvict {
			s.announce(evicted, false)
		}
	}
}

// respond sends the answer to the client and releases the slot.
func (s *Server) respond(st *reqState, ok bool) {
	if st.client != nil {
		size := sizeResp
		if ok {
			size += int(s.cfg.Catalog.Size)
		}
		m := NewRespMsg(&s.respPool)
		m.ID, m.OK = st.id, ok
		st.client.TrySend(m, size)
		s.stats.Served++
	}
	s.finish(st, true)
}

// finish tears down request state, recycles it, and pulls the next
// waiter in.
func (s *Server) finish(st *reqState, responded bool) {
	if s.inflight[st.id] == nil {
		return
	}
	delete(s.inflight, st.id)
	if st.client != nil {
		delete(s.clientOf, st.client)
		cnet.ReleaseConn(st.client) // pin taken when admit stored it
	}
	s.putReq(st)
	s.active--
	if s.active < s.cfg.MaxConcurrent && s.QueuedAccepts() > 0 {
		next := s.acceptQ[s.acceptHead]
		s.acceptQ[s.acceptHead] = pendingReq{}
		s.acceptHead++
		if s.acceptHead == len(s.acceptQ) {
			s.acceptQ = s.acceptQ[:0]
			s.acceptHead = 0
		}
		// Admit through the mailbox: the accept backlog drains as a chain
		// of separately charged work items, not one giant handler. The
		// queue entry is popped here, not in the callback, so a client
		// close can still remove a waiter in between.
		op := s.getAdmitOp()
		op.conn, op.msg = next.conn, next.msg
		cnet.RetainConn(op.conn)
		op.runSer = clock.Schedule(s.env.Clock(), 0, op.run)
	}
}

// admitOp is a pooled deferred-admission record.
type admitOp struct {
	s    *Server
	conn cnet.Conn
	msg  *ReqMsg
	run  func()

	// Snapshot identity: slot indexes s.admitOps while live; runSer is
	// the deferred-admission timer's serial.
	slot   int
	runSer uint64
}

func (s *Server) getAdmitOp() *admitOp {
	var op *admitOp
	if n := len(s.admitFree); n > 0 {
		op = s.admitFree[n-1]
		s.admitFree = s.admitFree[:n-1]
	} else {
		op = &admitOp{s: s}
		op.run = func() {
			s := op.s
			conn, msg := op.conn, op.msg
			s.putAdmitOp(op)
			s.env.Charge(s.cfg.Cost.Accept)
			s.admit(conn, msg)
			cnet.ReleaseConn(conn) // pin taken when the op captured the conn
		}
	}
	op.slot = len(s.admitOps)
	s.admitOps = append(s.admitOps, op)
	return op
}

func (s *Server) putAdmitOp(op *admitOp) {
	last := len(s.admitOps) - 1
	moved := s.admitOps[last]
	s.admitOps[op.slot] = moved
	moved.slot = op.slot
	s.admitOps[last] = nil
	s.admitOps = s.admitOps[:last]
	// The pin on op.conn is dropped by op.run after admit, not here: run
	// is the only caller, and it still uses the conn after recycling the
	// record.
	op.conn, op.msg, op.runSer = nil, nil, 0
	s.admitFree = append(s.admitFree, op)
}

// RestoreDiskDone re-supplies the disk completion callback when this op
// is restored from a snapshot (simdisk's ReadOwner, asserted structurally).
func (op *diskOp) RestoreDiskDone() func(ok bool) { return op.onDone }

// RestoreDiskNotify re-supplies the space-wait callback when this op is
// restored from a snapshot (simdisk's SpaceOwner).
func (op *diskOp) RestoreDiskNotify() func() { return op.notify }
