package server

import (
	"time"

	"press/internal/clock"
	"press/internal/cnet"
)

// peer holds the intra-cluster plumbing towards one other node. PRESS uses
// a pair of unidirectional streams per node pair: each node dials its own
// send connection and receives on the one the peer dialed. The send queue
// in front of the connection is the structure queue monitoring watches.
type peer struct {
	// Hot fields first: every forward touches conn, the send queue and
	// load, so they share the record's leading cache line; dial/retry
	// state is only walked during fault episodes and sits behind them.
	id       cnet.NodeID
	conn     cnet.Conn // outbound (send) connection; nil until established
	sendQ    []outMsg
	sendHead int // consumed prefix of sendQ (popped without re-slicing)
	reqInQ   int // FwdMsgs among the queued messages
	load     int // piggybacked open-request count
	dialing  bool
	retry    *retryTimer   // the latest redial timer armed, pending or spent
	retries  []*retryTimer // redial timers still to run, oldest first

	// Dial and connection callbacks, built once per peer: redialing is hot
	// during fault episodes and must not allocate per attempt.
	h      cnet.StreamHandlers
	onDial func(c cnet.Conn, err error)
	redial func()
}

func (p *peer) qlen() int { return len(p.sendQ) - p.sendHead }

// retryTimer is one armed redial. A connectPeer from the send path can
// start (and fail) a new dial before an earlier retry has run, so
// several can be pending; each leaves p.retries when it runs, and
// snapshots re-claim all of them.
type retryTimer struct {
	p      *peer
	h      timerHandle
	serial uint64 // 0 where the clock numbers no timers (live stacks)
}

func (rt *retryTimer) fire() {
	rt.p.dropRetry(rt)
	rt.p.redial()
}

func (p *peer) dropRetry(rt *retryTimer) {
	for i, q := range p.retries {
		if q == rt {
			p.retries = append(p.retries[:i], p.retries[i+1:]...)
			return
		}
	}
}

func (p *peer) armRetry(c clock.Clock, d time.Duration) {
	rt := &retryTimer{p: p}
	rt.h = c.AfterFunc(d, rt.fire)
	if ts, ok := rt.h.(interface{ TimerSerial() uint64 }); ok {
		rt.serial = ts.TimerSerial()
	}
	p.retry = rt
	p.retries = append(p.retries, rt)
}

type outMsg struct {
	m     cnet.Message
	size  int
	isReq bool
	reqID uint64 // for requeuing on exclusion; 0 for non-requests
}

// peerAt returns n's peer plumbing, nil when none was ever built —
// the dense-slice counterpart of the old map lookup.
func (s *Server) peerAt(n cnet.NodeID) *peer {
	if n < 0 || int(n) >= len(s.peers) {
		return nil
	}
	return s.peers[n]
}

func (s *Server) setPeer(n cnet.NodeID, p *peer) {
	if int(n) >= len(s.peers) {
		grown := make([]*peer, int(n)+1)
		copy(grown, s.peers)
		s.peers = grown
	}
	s.peers[n] = p
}

func (s *Server) peer(n cnet.NodeID) *peer {
	p := s.peerAt(n)
	if p == nil {
		p = &peer{id: n}
		p.h = cnet.StreamHandlers{
			OnClose: func(c cnet.Conn, err error) {
				if p.conn == c {
					p.conn = nil
					cnet.ReleaseConn(c) // pin taken when onDial stored it
					s.peerConnLost(p.id, err)
				}
			},
			OnWritable: func(c cnet.Conn) { s.drain(p.id) },
		}
		p.onDial = func(c cnet.Conn, err error) {
			p.dialing = false
			if err != nil {
				// The peer application is dead or the node unreachable. Keep
				// retrying while it remains in the view; the detectors decide
				// whether it should stay there.
				if s.inView(p.id) {
					p.armRetry(s.env.Clock(), 2*time.Second)
				}
				return
			}
			if !s.inView(p.id) {
				c.Close()
				return
			}
			p.conn = c
			cnet.RetainConn(c) // the record holds the conn across events
			hello := HelloMsg{From: s.cfg.Self, CacheDocs: s.cache.Docs()}
			c.TrySend(hello, sizeHello+4*len(hello.CacheDocs))
			s.drain(p.id)
		}
		p.redial = func() { s.connectPeer(p.id) }
		s.setPeer(n, p)
	}
	return p
}

func (s *Server) peerLoad(n cnet.NodeID, load int) {
	if p := s.peerAt(n); p != nil {
		p.load = load
	} else if s.inView(n) {
		s.peer(n).load = load
	}
}

// connectPeer establishes (or re-establishes) the send connection to n.
func (s *Server) connectPeer(n cnet.NodeID) {
	p := s.peer(n)
	if p.conn != nil || p.dialing {
		return
	}
	p.dialing = true
	s.env.Dial(n, cnet.ClassIntra, PortPress, p.h, p.onDial)
}

// enqueue appends a message to n's send queue and pushes the queue.
func (s *Server) enqueue(n cnet.NodeID, om outMsg) {
	p := s.peer(n)
	p.sendQ = append(p.sendQ, om)
	if om.isReq {
		p.reqInQ++
	}
	s.observeQueue(p)
	if p.conn == nil {
		s.connectPeer(n)
		return
	}
	s.drain(n)
}

// drain pushes queued messages until the connection's window fills.
func (s *Server) drain(n cnet.NodeID) {
	p := s.peerAt(n)
	if p == nil || p.conn == nil {
		return
	}
	for p.sendHead < len(p.sendQ) {
		om := p.sendQ[p.sendHead]
		if !p.conn.TrySend(om.m, om.size) {
			break // flow control: the peer is not reading
		}
		p.sendQ[p.sendHead] = outMsg{}
		p.sendHead++
		if om.isReq {
			p.reqInQ--
		}
	}
	if p.sendHead == len(p.sendQ) {
		// Fully drained: reset so the backing array is reused from the top.
		p.sendQ = p.sendQ[:0]
		p.sendHead = 0
	}
	s.observeQueue(p)
}

func (s *Server) observeQueue(p *peer) {
	if s.qm != nil {
		s.qm.Observe(p.id, p.qlen(), p.reqInQ)
	}
}

// teardown closes the peer's plumbing and empties its send queue. Queued
// requests are rerouted by the caller via the inflight table.
func (p *peer) teardown() {
	p.sendQ = nil
	p.sendHead = 0
	p.reqInQ = 0
	if p.retry != nil && p.retry.h.Stop() {
		p.dropRetry(p.retry)
	}
	if p.conn != nil {
		p.conn.Close()
		cnet.ReleaseConn(p.conn) // pin taken when onDial stored it
		p.conn = nil
	}
	p.dialing = false
}

// peerConnLost reacts to the loss of our send connection to n. A reset
// means the peer process crashed (or its machine rebooted): PRESS treats
// that as the peer leaving the cooperation set; it rejoins via the join
// protocol or the membership service.
func (s *Server) peerConnLost(n cnet.NodeID, err error) {
	if !s.inView(n) {
		return
	}
	s.emitDetect(int(n), "conn: "+err.Error())
	s.exclude(n, "connection lost")
}

// inPeer is an inbound peer connection's identity, unknown until its
// Hello arrives. The connection's own handlers capture it, so the hot
// receive path reads a pointer instead of hashing the conn-keyed
// registry per message; inboundFrom stays authoritative for snapshots
// (cnet.None until the Hello).
type inPeer struct {
	from  cnet.NodeID
	known bool
}

// acceptPeer handles inbound intra-cluster connections (the peer's send
// connection). The first message must be a Hello identifying the dialer.
func (s *Server) acceptPeer(c cnet.Conn) cnet.StreamHandlers {
	s.inboundFrom[c] = cnet.None
	return s.inboundHandlers(&inPeer{})
}

func (s *Server) inboundHandlers(st *inPeer) cnet.StreamHandlers {
	return cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) { s.onPeerMsg(st, c, m) },
		OnClose:   func(c cnet.Conn, err error) { s.onPeerClose(st, c, err) },
	}
}

func (s *Server) onPeerClose(st *inPeer, c cnet.Conn, err error) {
	delete(s.inboundFrom, c)
	if st.known {
		s.peerConnLost(st.from, err)
	}
}

func (s *Server) onPeerMsg(st *inPeer, c cnet.Conn, m cnet.Message) {
	from, known := st.from, st.known
	switch msg := m.(type) {
	case HelloMsg:
		s.env.Charge(s.cfg.Cost.Control)
		st.from, st.known = msg.From, true
		s.inboundFrom[c] = msg.From
		for _, d := range msg.CacheDocs {
			// Sharded directory: only record the shards this node owns;
			// the rest of the Hello is directory state for other homes.
			if s.cfg.Sharded && s.shardOwner(d) != s.cfg.Self {
				continue
			}
			s.dir.Set(msg.From, d, true)
		}
		// A Hello from a node outside the view is a (re)joining member:
		// NodeIn. (Base PRESS: the rejoining node re-establishes the
		// intra-cluster connections.)
		s.include(msg.From, "hello")
	case *FwdMsg:
		if known {
			s.peerLoad(from, msg.Load)
			s.servePeer(from, msg)
		}
		msg.Release()
	case *FwdReplyMsg:
		if known {
			s.peerLoad(from, msg.Load)
			s.completeForwarded(from, msg)
		}
		msg.Release()
	}
}
