// Package frontend implements the paper's front-end tier (§4.1): an
// LVS-style request distributor that hides the server nodes behind one
// address and masks node failures by not routing to nodes its monitor
// believes are down, plus the monitoring refinements studied in §6.2.
//
// Monitoring layers, each switchable per version:
//
//   - mon pinger (§4.1): ICMP-style echo to each node every 5 s; three
//     missed replies mark the node down. Pings are answered by the node's
//     network stack, so a crashed or hung *application* still answers —
//     the blind spot the paper measures.
//   - C-MON (§6.2): TCP/HTTP connection monitoring with a 2 s deadline,
//     which does see application crashes and hangs, faster.
//   - S-FME (§6.2): the probe replies carry each server's cooperation
//     set; nodes isolated from the largest reported set are taken out of
//     rotation so clients stop losing requests to splintered singletons.
//
// The real LVS forwards packets and lets servers reply directly to
// clients (IP tunneling); this model relays messages through the
// front-end instead, which preserves everything availability-relevant
// (routing table, masking latency, FE failure) at a small fidelity cost
// in data-path bandwidth that none of the experiments are sensitive to.
package frontend

import (
	"fmt"
	"sort"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/trace"
)

// Ports.
const (
	// PortPing is the ICMP-echo stand-in answered by the machine's
	// network stack (a dedicated trivial process, not the application).
	PortPing = "icmp"
)

// Config parameterizes the front-end.
type Config struct {
	Self     cnet.NodeID
	Backends []cnet.NodeID

	// PingPeriod / PingMiss: the mon daemon's probe cadence (5 s, 3).
	PingPeriod time.Duration
	PingMiss   int

	// ConnMonitor enables C-MON; ConnDeadline is its 2 s detection bound.
	ConnMonitor  bool
	ConnPeriod   time.Duration
	ConnDeadline time.Duration

	// SFME enables isolation masking from probe-carried cooperation sets.
	SFME bool

	// ShardRoute sends each request to the healthy backend that owns the
	// document's shard (the same mod-N placement the sharded directory
	// uses), falling back to round-robin when the owner is masked. This
	// makes first-hop routing land on the directory authority, so the
	// scale-out protocol usually serves with zero extra hops.
	ShardRoute bool

	// Cost is the CPU charged per relayed request.
	Cost time.Duration
}

func (c Config) withDefaults() Config {
	if c.PingPeriod <= 0 {
		c.PingPeriod = 5 * time.Second
	}
	if c.PingMiss <= 0 {
		c.PingMiss = 3
	}
	if c.ConnPeriod <= 0 {
		c.ConnPeriod = time.Second
	}
	if c.ConnDeadline <= 0 {
		c.ConnDeadline = 2 * time.Second
	}
	if c.Cost <= 0 {
		c.Cost = 500 * time.Microsecond
	}
	return c
}

// backendState tracks one server node in the routing table.
type backendState struct {
	pingMisses   int
	pingDown     bool
	connDown     bool
	isolated     bool
	awaitingPong bool
	lastView     []cnet.NodeID
}

func (b *backendState) healthy() bool { return !b.pingDown && !b.connDown && !b.isolated }

// Frontend is the request-distributor process.
type Frontend struct {
	cfg      Config   //availlint:skipfield cfg construction config, identical across restores
	env      cnet.Env //availlint:skipfield env process backlink, supplied by the restore constructor
	backends map[cnet.NodeID]*backendState
	rr       int
	relayed  uint64
	probeSeq uint64
	pingT    clock.Ticker

	relayFree []*relay //availlint:skipfield relayFree free list; an empty list after restore is behaviorally identical
	// live holds the relay records in use (each knows its slot), so a
	// snapshot can enumerate in-flight relays.
	live []*relay
	// dialTag, when the environment supports it, tags each relay's
	// backend dial with the relay for snapshot identity.
	dialTag cnet.DialTagger //availlint:skipfield dialTag environment capability, re-derived by the constructor
}

// New starts a front-end process on env.
func New(cfg Config, env cnet.Env) *Frontend {
	f := newFrontend(cfg, env)
	f.pingT = f.env.Clock().Every(f.cfg.PingPeriod, f.pingTick)
	if f.cfg.ConnMonitor || f.cfg.SFME {
		f.startConnProbing()
	}
	return f
}

// newFrontend builds the front-end and registers its listeners (no
// timers): shared by New and the snapshot Restore path.
func newFrontend(cfg Config, env cnet.Env) *Frontend {
	f := &Frontend{cfg: cfg.withDefaults(), env: env, backends: make(map[cnet.NodeID]*backendState)}
	for _, b := range f.cfg.Backends {
		f.backends[b] = &backendState{}
	}
	f.dialTag, _ = env.(cnet.DialTagger)
	env.Listen(server.PortHTTP, f.acceptClient)
	env.BindDatagram(PortPing, f.onPong)
	return f
}

// Healthy returns the nodes currently in rotation, sorted (tests and the
// S-FME bench inspect it).
func (f *Frontend) Healthy() []cnet.NodeID {
	var out []cnet.NodeID
	for n, b := range f.backends {
		if b.healthy() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Relayed returns the number of requests forwarded.
func (f *Frontend) Relayed() uint64 { return f.relayed }

func (f *Frontend) emit(kind metrics.KindID, node cnet.NodeID, detail string) {
	f.env.Events().EmitID(f.env.Clock().Now(), metrics.SrcFrontend, kind, int(node), detail)
}

func (f *Frontend) setDown(n cnet.NodeID, field *bool, down bool, why string) {
	b := f.backends[n]
	wasHealthy := b.healthy()
	*field = down
	nowHealthy := b.healthy()
	switch {
	case wasHealthy && !nowHealthy:
		f.emit(metrics.KFrontendMask, n, why)
		f.emit(metrics.KDetect, n, "frontend: "+why)
	case !wasHealthy && nowHealthy:
		f.emit(metrics.KFrontendUnmask, n, why)
	}
}

// pick returns the next healthy backend round-robin, or None.
func (f *Frontend) pick() cnet.NodeID {
	n := len(f.cfg.Backends)
	for i := 0; i < n; i++ {
		cand := f.cfg.Backends[f.rr%n]
		f.rr++
		if f.backends[cand].healthy() {
			return cand
		}
	}
	return cnet.None
}

// pickFor returns the routing target for doc: under ShardRoute the
// shard owner when healthy, otherwise (and in the faithful mode always)
// the round-robin choice.
func (f *Frontend) pickFor(doc trace.DocID) cnet.NodeID {
	if f.cfg.ShardRoute {
		owner := f.cfg.Backends[int(doc)%len(f.cfg.Backends)]
		if f.backends[owner].healthy() {
			return owner
		}
	}
	return f.pick()
}

// acceptClient relays one request to a backend, through a pooled relay
// record.
func (f *Frontend) acceptClient(client cnet.Conn) cnet.StreamHandlers {
	r := f.getRelay()
	r.client = client
	return r.ch
}

// relay is the state of one relayed client connection: the client, the
// backend connection once its dial succeeds, and the request waiting for
// that dial. Its five handlers are bound once, when the record is minted,
// so relaying a request allocates nothing once the pool is warm.
//
// A record returns to the pool only when it is closed and its backend
// dial has reported, so the dial result always finds the use that
// started it. Handler calls queued before the close can still arrive
// after the record was reused; each handler checks that its conn is the
// record's current client or backend and ignores the call otherwise. The
// check is sound because a queued call pins its conn, so no new
// connection can reuse that conn while the call waits. Every client in
// this repository opens a connection per request, so a record relays one
// request; a second request on the same connection is ignored.
type relay struct {
	f       *Frontend //availlint:skipfield f owner backlink, set when the record is minted
	client  cnet.Conn
	backend cnet.Conn
	req     *server.ReqMsg // set while the backend dial is in flight
	closed  bool
	slot    int                    //availlint:skipfield slot index in f.live, reassigned as restore re-registers
	ch, bh  cnet.StreamHandlers    //availlint:skipfield ch bound handler set, rebuilt when the record is minted
	onDial  func(cnet.Conn, error) //availlint:skipfield onDial bound dial callback, rebuilt when the record is minted
}

func (f *Frontend) getRelay() *relay {
	var r *relay
	if n := len(f.relayFree); n > 0 {
		r = f.relayFree[n-1]
		f.relayFree[n-1] = nil
		f.relayFree = f.relayFree[:n-1]
	} else {
		r = &relay{f: f}
		r.ch = cnet.StreamHandlers{OnMessage: r.onClientMsg, OnClose: r.onClientClose}
		r.bh = cnet.StreamHandlers{OnMessage: r.onBackendMsg, OnClose: r.onBackendClose}
		r.onDial = r.dialResult
	}
	r.slot = len(f.live)
	f.live = append(f.live, r)
	return r
}

// recycle returns a closed record to the pool once its dial has reported.
func (r *relay) recycle() {
	if !r.closed || r.req != nil {
		return
	}
	f := r.f
	last := len(f.live) - 1
	moved := f.live[last]
	f.live[r.slot] = moved
	moved.slot = r.slot
	f.live[last] = nil
	f.live = f.live[:last]
	r.client, r.backend, r.req = nil, nil, nil
	r.closed = false
	f.relayFree = append(f.relayFree, r)
}

// RestoreDialEndpoint implements cnet.DialOwner for the relay's
// backend dial.
func (r *relay) RestoreDialEndpoint() (cnet.StreamHandlers, func(cnet.Conn, error)) {
	return r.bh, r.onDial
}

func (r *relay) onClientMsg(c cnet.Conn, m cnet.Message) {
	req, ok := m.(*server.ReqMsg)
	if !ok || c != r.client || r.req != nil || r.backend != nil {
		return
	}
	f := r.f
	f.env.Charge(f.cfg.Cost)
	target := f.pickFor(req.Doc)
	if target == cnet.None {
		r.closeBoth() // nothing healthy: the client sees a reset
		return
	}
	f.relayed++
	r.req = req
	if f.dialTag != nil {
		f.dialTag.TagNextDial(r)
	}
	f.env.Dial(target, cnet.ClassClient, server.PortHTTP, r.bh, r.onDial)
}

func (r *relay) onClientClose(c cnet.Conn, err error) {
	if c == r.client {
		r.closeBoth()
	}
}

// onBackendMsg relays the response and leaves the teardown to the
// backend's close. The record is passed through unreleased: the client is
// the final consumer.
func (r *relay) onBackendMsg(bc cnet.Conn, bm cnet.Message) {
	if r.closed || bc != r.backend {
		return
	}
	if resp, ok := bm.(*server.RespMsg); ok {
		size := 128
		if resp.OK {
			size += 27 * 1024
		}
		r.client.TrySend(resp, size)
	}
}

func (r *relay) onBackendClose(bc cnet.Conn, err error) {
	if bc == r.backend {
		r.closeBoth()
	}
}

func (r *relay) dialResult(bc cnet.Conn, err error) {
	req := r.req
	r.req = nil
	if r.closed {
		if bc != nil {
			bc.Close()
		}
		r.recycle()
		return
	}
	if err != nil {
		// LVS does not retry: the loss is the client's.
		r.closeBoth()
		return
	}
	r.backend = bc
	cnet.RetainConn(bc) // held by the relay until closeBoth
	bc.TrySend(req, 256)
}

func (r *relay) closeBoth() {
	if r.closed {
		return
	}
	r.closed = true
	r.client.Close()
	if r.backend != nil {
		r.backend.Close()
		cnet.ReleaseConn(r.backend) // pin taken when the relay stored it
	}
	r.recycle()
}

// --- mon pinger -----------------------------------------------------------

func (f *Frontend) pingTick() {
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		if b.awaitingPong {
			b.pingMisses++
			if b.pingMisses >= f.cfg.PingMiss && !b.pingDown {
				f.setDown(n, &b.pingDown, true, fmt.Sprintf("%d pings missed", b.pingMisses))
			}
		}
		b.awaitingPong = true
		f.env.Send(n, cnet.ClassClient, PortPing, PingMsg{From: f.cfg.Self, Seq: f.probeSeq}, 32)
	}
	f.probeSeq++
}

func (f *Frontend) onPong(from cnet.NodeID, m cnet.Message) {
	if _, ok := m.(PongMsg); !ok {
		return
	}
	b := f.backends[from]
	if b == nil {
		return
	}
	b.awaitingPong = false
	b.pingMisses = 0
	if b.pingDown {
		f.setDown(from, &b.pingDown, false, "ping restored")
	}
}

// --- C-MON / S-FME probes ---------------------------------------------------

func (f *Frontend) startConnProbing() {
	f.env.Clock().Every(f.cfg.ConnPeriod, f.connProbeTick)
}

func (f *Frontend) connProbeTick() {
	for _, n := range f.cfg.Backends {
		f.probeBackend(n)
	}
}

// probeBackend runs one HTTP probe against n with the C-MON deadline.
func (f *Frontend) probeBackend(n cnet.NodeID) {
	b := f.backends[n]
	finished := false
	var conn cnet.Conn
	fail := func() {
		if finished {
			return
		}
		finished = true
		if conn != nil {
			conn.Close()
		}
		if f.cfg.ConnMonitor && !b.connDown {
			f.setDown(n, &b.connDown, true, "connection probe failed")
		}
		b.lastView = nil
		f.refreshIsolation()
	}
	f.env.Clock().AfterFunc(f.cfg.ConnDeadline, func() {
		fail()
		if conn != nil {
			cnet.ReleaseConn(conn) // the deadline always outlives the probe's hold
		}
	})
	h := cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) {
			resp, ok := m.(*server.RespMsg)
			if !ok {
				return
			}
			isProbe, view := resp.Probe, resp.View
			resp.Release() // the View slice itself is never recycled
			if !isProbe || finished {
				return
			}
			finished = true
			c.Close()
			if b.connDown {
				f.setDown(n, &b.connDown, false, "connection probe restored")
			}
			b.lastView = view
			f.refreshIsolation()
		},
		OnClose: func(c cnet.Conn, err error) { fail() },
	}
	f.env.Dial(n, cnet.ClassClient, server.PortHTTP, h, func(c cnet.Conn, err error) {
		if finished {
			if c != nil {
				c.Close()
			}
			return
		}
		if err != nil {
			fail()
			return
		}
		conn = c
		cnet.RetainConn(c) // held across events until the deadline fires
		f.probeSeq++
		c.TrySend(&server.ReqMsg{ID: f.probeSeq, Probe: true}, 64)
	})
}

// refreshIsolation recomputes S-FME masking: the reference cooperation
// set is the largest one reported; responsive nodes outside it are
// isolated splinters and leave the rotation.
func (f *Frontend) refreshIsolation() {
	if !f.cfg.SFME {
		return
	}
	var ref []cnet.NodeID
	for _, n := range f.cfg.Backends {
		if v := f.backends[n].lastView; len(v) > len(ref) {
			ref = v
		}
	}
	inRef := make(map[cnet.NodeID]bool, len(ref))
	for _, n := range ref {
		inRef[n] = true
	}
	for _, n := range f.cfg.Backends {
		b := f.backends[n]
		iso := len(b.lastView) > 0 && len(ref) > len(b.lastView) && !inRef[n]
		if iso != b.isolated {
			why := "isolated from cooperation set"
			if !iso {
				why = "rejoined cooperation set"
			}
			f.setDown(n, &b.isolated, iso, why)
		}
	}
}

// PingMsg / PongMsg are the ICMP echo stand-ins.
type PingMsg struct {
	From cnet.NodeID
	Seq  uint64
}

// PongMsg answers a ping.
type PongMsg struct {
	From cnet.NodeID
	Seq  uint64
}

// NewPingResponder installs the machine-level echo responder; it runs as
// its own trivial process so it keeps answering while the application is
// crashed or hung, exactly like a kernel's ICMP reply.
func NewPingResponder(env cnet.Env) {
	env.BindDatagram(PortPing, func(from cnet.NodeID, m cnet.Message) {
		if ping, ok := m.(PingMsg); ok {
			env.Send(from, cnet.ClassClient, PortPing, PongMsg{From: env.Local(), Seq: ping.Seq}, 32)
		}
	})
}
