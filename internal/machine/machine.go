// Package machine models the cluster hosts of the paper's testbed and the
// processes running on them (the PRESS server, the membership daemon, the
// FME daemon). It is the layer where the fault types of Table 1 that are
// not network faults take effect:
//
//	node crash   → Machine.Crash / Restart: processes die, connections
//	               black-hole until the reboot RSTs them.
//	node freeze  → Machine.Freeze / Unfreeze: nothing runs, timers fire
//	               late, stream traffic buffers against flow control.
//	app crash    → Machine.KillProc / StartProc: one process dies (its
//	               connections RST immediately) and is later restarted.
//	app hang     → Proc.Hang / Unhang: the process stops reading and
//	               processing but its sockets stay open — the divergence
//	               case that motivates FME (§4.4).
//
// Each process executes its work serially through a mailbox with explicit
// CPU charging, reproducing PRESS's "one main coordinating thread" design
// whose blocking behaviour (on a full disk queue) is central to the
// paper's Figure 4.
package machine

import (
	"fmt"
	"math/rand"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
)

// State mirrors simnet.NodeState at the machine level.
type State = simnet.NodeState

// Machine is one simulated host.
type Machine struct {
	sim   *sim.Sim     //availlint:skipfield sim kernel backlink; the restored machine is built over the restored kernel
	log   *metrics.Log //availlint:skipfield log event-log backlink, wired by New
	id    cnet.NodeID
	iface *simnet.Iface  //availlint:skipfield iface interface backlink; simnet restores its own state
	disks *simdisk.Array //availlint:skipfield disks disk-array backlink; simdisk restores its own state
	state State
	// slow is the gray-degradation CPU multiplier (faults.NodeSlow):
	// every Charge on this machine's processes is scaled by it. 0 or 1
	// means healthy; the hot path tests >1 only, so an inactive machine
	// costs one comparison.
	slow  float64
	procs map[string]*Proc
	order []string

	// Free lists for the per-connection and per-timer records below.
	// Worlds are single-threaded, so plain slices suffice; records that
	// never reach their release point (connections that outlive the
	// world, stopped timers) fall to the garbage collector instead.
	wrapFree  []*wrapRec  //availlint:skipfield wrapFree free list; an empty list after restore is behaviorally identical
	dialFree  []*dialRec  //availlint:skipfield dialFree free list; an empty list after restore is behaviorally identical
	closeFree []*closeRec //availlint:skipfield closeFree free list; an empty list after restore is behaviorally identical
	timerFree []*timerRec //availlint:skipfield timerFree free list; an empty list after restore is behaviorally identical

	// dials is the registry of in-flight dial records (issued, result not
	// yet delivered), kept so snapshots can enumerate them. Registered in
	// Env.Dial, removed when the record is released.
	dials []*dialRec

	// nextDialOwner tags the next Env.Dial with the component record that
	// owns its result callback (TagNextDial), for snapshot identity.
	nextDialOwner any //availlint:skipfield nextDialOwner transient tag consumed by the Dial it is set for; nil between events

	// rst holds machine-level restore scratch; nil outside a restore.
	rst *machineRestore //availlint:skipfield rst restore-only scratch, nil whenever a snapshot can be taken
}

// New attaches a machine to the network. disks may be nil for hosts
// without a modeled disk (front-end, client drivers).
func New(s *sim.Sim, net *simnet.Network, id cnet.NodeID, disks *simdisk.Array, log *metrics.Log) *Machine {
	return &Machine{
		sim:   s,
		log:   log,
		id:    id,
		iface: net.AddIface(id),
		disks: disks,
		state: simnet.NodeUp,
		procs: make(map[string]*Proc),
	}
}

// ID returns the machine's node ID.
func (m *Machine) ID() cnet.NodeID { return m.id }

// Iface returns the machine's network interface (for fault injection).
func (m *Machine) Iface() *simnet.Iface { return m.iface }

// Disks returns the machine's disk array (nil if none).
func (m *Machine) Disks() *simdisk.Array { return m.disks }

// State returns the machine state.
func (m *Machine) State() State { return m.state }

// Up reports whether the machine is running normally.
func (m *Machine) Up() bool { return m.state == simnet.NodeUp }

// SetSlow injects (factor > 1) or repairs (factor <= 1) the gray
// node-slow degradation: CPU time charged by this machine's processes is
// multiplied by factor. The machine stays up and keeps answering health
// checks — only slower.
func (m *Machine) SetSlow(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	m.slow = factor
}

// SlowFactor reports the current CPU multiplier (1 when healthy).
func (m *Machine) SlowFactor() float64 {
	if m.slow > 1 {
		return m.slow
	}
	return 1
}

// AddProc registers a process and starts it immediately. The start
// function is the process image: it is re-invoked with a fresh Env on
// every (re)start, so components rebuild all state from scratch exactly
// like a restarted Unix process.
func (m *Machine) AddProc(name string, start func(env *Env)) *Proc {
	p := m.AddProcCold(name, start)
	if m.state == simnet.NodeUp {
		p.boot()
	}
	return p
}

// AddProcCold registers a process without booting it: the snapshot
// restore path builds the full topology first (so no stray boot events
// reach a virgin kernel) and rehydrates process state afterwards. The
// start function still serves future restarts.
func (m *Machine) AddProcCold(name string, start func(env *Env)) *Proc {
	if _, dup := m.procs[name]; dup {
		panic("machine: duplicate proc " + name)
	}
	p := &Proc{m: m, name: name, start: start}
	m.procs[name] = p
	m.order = append(m.order, name)
	return p
}

// Proc returns the named process, or nil.
func (m *Machine) Proc(name string) *Proc { return m.procs[name] }

// Crash takes the whole machine down: every process dies, and the network
// sees the crash semantics described in simnet.
func (m *Machine) Crash() {
	if m.state == simnet.NodeDown {
		return
	}
	m.state = simnet.NodeDown
	m.iface.SetState(simnet.NodeDown)
	for _, name := range m.order {
		m.procs[name].kill(false) // iface zombied the conns already
	}
	m.emit(metrics.KServerDown, "machine crash")
}

// Restart boots a crashed machine: connections from the previous life RST
// at the peers, then every registered process starts fresh.
func (m *Machine) Restart() {
	if m.state != simnet.NodeDown {
		return
	}
	m.state = simnet.NodeUp
	m.iface.SetState(simnet.NodeUp)
	for _, name := range m.order {
		m.procs[name].boot()
	}
	m.emit(metrics.KServerUp, "machine restart")
}

// Freeze wedges the machine: no process runs, timers are deferred, stream
// traffic buffers, dials to it time out.
func (m *Machine) Freeze() {
	if m.state != simnet.NodeUp {
		return
	}
	m.state = simnet.NodeFrozen
	m.iface.SetState(simnet.NodeFrozen)
}

// Unfreeze resumes a frozen machine exactly where it stopped — processes
// did NOT restart, which is what violates the crash-only fault model the
// base PRESS assumes (§3: "PRESS is unable to re-integrate because the
// faulty node did not crash").
func (m *Machine) Unfreeze() {
	if m.state != simnet.NodeFrozen {
		return
	}
	m.state = simnet.NodeUp
	m.iface.SetState(simnet.NodeUp)
	for _, name := range m.order {
		p := m.procs[name]
		p.syncConnPause()
		p.pump()
	}
}

// KillProc crashes a single process (application crash: immediate RSTs).
func (m *Machine) KillProc(name string) {
	if p := m.procs[name]; p != nil && m.state == simnet.NodeUp {
		p.kill(true)
	}
}

// StartProc (re)starts a dead process.
func (m *Machine) StartProc(name string) {
	if p := m.procs[name]; p != nil && m.state == simnet.NodeUp && !p.alive {
		p.boot()
	}
}

// TakeOffline is the FME "take the node offline for repair" action: the
// machine goes down exactly as in a crash, converting whatever was wrong
// into the fault the rest of the system knows how to handle.
func (m *Machine) TakeOffline(reason string) {
	m.emit(metrics.KFMEAction, "offline: "+reason)
	m.Crash()
}

func (m *Machine) emit(kind metrics.KindID, detail string) {
	if m.log != nil {
		m.log.EmitID(m.sim.Now(), metrics.SrcMachine, kind, int(m.id), detail)
	}
}

// Proc is one process on a machine: a serial event loop with a mailbox.
type Proc struct {
	m           *Machine //availlint:skipfield m owner backlink, set by AddProc on the rebuilt machine
	name        string
	start       func(env *Env) //availlint:skipfield start component entry closure, re-supplied by AddProc during the rebuild
	incarnation uint64
	alive       bool
	hung        bool
	stalled     bool
	running     bool          // a handler's charged CPU time is still elapsing
	curCharge   time.Duration //availlint:skipfield curCharge nonzero only inside a single handler dispatch; snapshots run between events
	mailbox     []call
	head        int // next mailbox slot to dispatch; storage before it is spent
	resume      resumeRec
	env         *Env
	conns       []simnet.StreamConn
	pauseConns  []simnet.StreamConn //availlint:skipfield pauseConns scratch for syncConnPause, empty between calls

	// timerSeq numbers every proc-clock timer ever armed, monotonically
	// across incarnations, giving components a serializable identity for
	// retained timer handles.
	timerSeq uint64

	// rst holds restore-only scratch state; nil outside a restore.
	rst *procRestore //availlint:skipfield rst restore-only scratch, nil whenever a snapshot can be taken
}

// call is one mailbox entry. Stream/datagram/dial callbacks at packet
// rate carry their handler and arguments in typed fields instead of a
// per-delivery closure, so posting them allocates nothing once the
// mailbox's storage has grown to its high-water mark. Exactly one of
// fn/sfn/dfn/rfn/wfn is set; the typed forms are gated on env.live() at
// dispatch, which is what their closure equivalents did.
type call struct {
	fn   func()                          // plain post; no gating
	sfn  func(cnet.Conn, cnet.Message)   // stream OnMessage
	dfn  func(cnet.NodeID, cnet.Message) // datagram handler
	rfn  func(cnet.Conn, error)          // dial result
	wfn  func(cnet.Conn)                 // stream OnWritable
	tr   *timerRec                       // pooled AfterFunc callback
	env  *Env                            // liveness gate for typed forms
	c    cnet.Conn
	m    cnet.Message
	from cnet.NodeID
	err  error

	// Snapshot tags: enough identity to rebuild the entry's callback on
	// restore (the function values themselves cannot be serialized).
	// dial distinguishes a dial result from an OnClose — both post rfn;
	// a dial result carries no message, so m holds the dialing
	// component's record when it tagged the dial (TagNextDial).
	dial bool
	to   cnet.NodeID // dial destination
	port string      // dgram port / dial port
}

func (c *call) dispatch() {
	switch {
	case c.fn != nil:
		c.fn()
	case c.sfn != nil:
		if c.env.live() {
			c.sfn(c.c, c.m)
		}
	case c.dfn != nil:
		if c.env.live() {
			c.dfn(c.from, c.m)
		}
	case c.rfn != nil:
		if c.env.live() {
			c.rfn(c.c, c.err)
		}
	case c.wfn != nil:
		if c.env.live() {
			c.wfn(c.c)
		}
	case c.tr != nil:
		// Recycle before running: fn may itself schedule a timer and
		// reuse the record immediately.
		r := c.tr
		fn := r.fn
		r.e.p.m.putTimer(r)
		if c.env.live() {
			fn()
		}
	}
}

// resumeRec carries the charge-elapsed wakeup through sim.AfterArg; one
// per process, reused, since at most one charge is elapsing at a time.
type resumeRec struct {
	p   *Proc //availlint:skipfield p owner backlink, re-set by pump before every arm
	inc uint64
}

// procResume ends a CPU charge: back to draining the mailbox unless the
// process died (or was restarted) while the charge elapsed.
func procResume(arg any) {
	r := arg.(*resumeRec)
	if r.p.incarnation != r.inc {
		return
	}
	r.p.running = false
	r.p.pump()
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Alive reports whether the process is running (hung counts as alive).
func (p *Proc) Alive() bool { return p.alive }

// Hung reports the hang state.
func (p *Proc) Hung() bool { return p.hung }

// Env returns the current incarnation's environment (nil before first
// boot). Exposed for tests and for wiring components to their disks.
func (p *Proc) Env() *Env { return p.env }

// Hang injects an application hang: the process keeps its sockets but
// stops reading and processing. Datagrams to it are dropped; streams
// buffer and then stall their senders.
func (p *Proc) Hang() {
	if !p.alive || p.hung {
		return
	}
	p.hung = true
	p.syncConnPause()
}

// Unhang clears a hang; the backlog is processed in order.
func (p *Proc) Unhang() {
	if !p.alive || !p.hung {
		return
	}
	p.hung = false
	p.syncConnPause()
	p.pump()
}

// Stalled reports whether the process blocked itself (full disk queue).
func (p *Proc) Stalled() bool { return p.stalled }

// MailboxLen reports the backlog length (tests/diagnostics).
func (p *Proc) MailboxLen() int { return len(p.mailbox) - p.head }

func (p *Proc) boot() {
	p.incarnation++
	p.alive = true
	p.hung = false
	p.stalled = false
	p.running = false
	p.mailbox = nil
	p.head = 0
	p.conns = nil
	p.env = &Env{p: p, inc: p.incarnation}
	p.env.rand = p.m.sim.NewRand(fmt.Sprintf("node%d/%s/%d", p.m.id, p.name, p.incarnation))
	p.start(p.env)
}

func (p *Proc) kill(abortConns bool) {
	if !p.alive {
		return
	}
	p.alive = false
	p.incarnation++
	// Discarded mailbox entries drop their conn pins (taken in postCall)
	// before the aborts below — an aborted pair with no surviving pins can
	// go straight back to the network's pool.
	for i := p.head; i < len(p.mailbox); i++ {
		if sc, ok := p.mailbox[i].c.(simnet.StreamConn); ok {
			sc.Release()
		}
	}
	p.mailbox = nil
	p.head = 0
	if p.env != nil {
		for _, port := range p.env.dgramPorts {
			p.m.iface.BindDatagram(port, nil)
		}
		for _, port := range p.env.listenPorts {
			p.m.iface.Listen(port, nil)
		}
	}
	conns := p.conns
	p.conns = nil
	if abortConns {
		for _, c := range conns {
			c.Abort()
		}
	}
}

func (p *Proc) runnable() bool {
	return p.alive && !p.hung && !p.stalled && p.m.state == simnet.NodeUp
}

func (p *Proc) post(fn func()) {
	p.postCall(call{fn: fn})
}

// postCall enqueues one mailbox entry, reclaiming spent storage when the
// queue drains so steady-state posting reuses one backing array.
func (p *Proc) postCall(c call) {
	if !p.alive {
		return
	}
	// A queued entry stashes its conn pointer across events: pin the
	// conn's backing allocation until the entry is dispatched (pump) or
	// discarded (kill).
	if sc, ok := c.c.(simnet.StreamConn); ok {
		sc.Retain()
	}
	if p.head > 0 {
		if p.head == len(p.mailbox) {
			p.mailbox = p.mailbox[:0]
			p.head = 0
		} else if len(p.mailbox) == cap(p.mailbox) {
			// The mailbox is a queue consumed at head; with a standing
			// backlog it never fully drains, so append-only growth would
			// reallocate forever. Slide the backlog over the spent prefix
			// and zero the vacated tail so its pointers die.
			n := copy(p.mailbox, p.mailbox[p.head:])
			tail := p.mailbox[n:]
			for i := range tail {
				tail[i] = call{}
			}
			p.mailbox = p.mailbox[:n]
			p.head = 0
		}
	}
	p.mailbox = append(p.mailbox, c)
	p.pump()
}

// pump drains the mailbox, honoring CPU charges: a handler that charges d
// delays everything behind it by d, exactly like work on PRESS's main
// coordinating thread.
func (p *Proc) pump() {
	for !p.running && p.runnable() && p.head < len(p.mailbox) {
		c := p.mailbox[p.head]
		p.mailbox[p.head] = call{}
		p.head++
		inc := p.incarnation
		p.curCharge = 0
		c.dispatch()
		if sc, ok := c.c.(simnet.StreamConn); ok {
			sc.Release() // pin taken by postCall
		}
		if p.incarnation != inc {
			return // died inside the handler
		}
		if p.curCharge > 0 {
			p.running = true
			p.resume.p, p.resume.inc = p, inc
			p.m.sim.AfterArg(p.curCharge, procResume, &p.resume)
		}
	}
	if p.head > 0 && p.head == len(p.mailbox) {
		p.mailbox = p.mailbox[:0]
		p.head = 0
	}
}

func (p *Proc) syncConnPause() {
	paused := p.hung || p.stalled
	// Unpausing drains buffered messages, which can close connections and
	// mutate p.conns via the close hook: iterate a copy, kept in a reused
	// scratch slice. The scratch is detached while in use, so a nested call
	// (a drained handler that stalls again) copies into its own.
	conns := append(p.pauseConns[:0], p.conns...)
	p.pauseConns = nil
	for i, c := range conns {
		conns[i] = nil
		// Only conns the process still holds are touched: a drained
		// handler can close a later conn before the loop reaches it, and
		// p.conns itself can carry an entry whose conn the network has
		// already recycled (its owner slot no longer points back).
		if c != nil && p.holds(c) {
			c.SetPaused(paused)
		}
	}
	p.pauseConns = conns[:0]
}

// holds reports whether c is still one of the process's adopted conns.
func (p *Proc) holds(c simnet.StreamConn) bool {
	i := c.OwnerSlot()
	return i >= 0 && i < len(p.conns) && p.conns[i] == c
}

func (p *Proc) adoptConn(c simnet.StreamConn, wr *wrapRec) {
	c.SetOwnerSlot(len(p.conns))
	p.conns = append(p.conns, c)
	// Prune on every close path, including component-initiated Close —
	// without this, long-lived processes (the front-end relays two
	// connections per request) accumulate dead connections and every
	// scan over p.conns degenerates.
	r := p.m.getClose()
	r.p, r.inc, r.c, r.wr = p, p.incarnation, c, wr
	c.SetCloseHook(r.fn)
	if p.hung || p.stalled {
		c.SetPaused(true)
	}
}

func (p *Proc) dropConn(c cnet.Conn) {
	sc, ok := c.(simnet.StreamConn)
	if !ok {
		return
	}
	// O(1) verified removal: the owner slot may be stale after a process
	// restart reset p.conns, so removal requires the slot to actually
	// hold this connection. Swap-remove preserves the exact order a
	// first-match scan produced (conns are unique).
	i := sc.OwnerSlot()
	if i < 0 || i >= len(p.conns) || p.conns[i] != sc {
		return
	}
	last := len(p.conns) - 1
	moved := p.conns[last]
	p.conns[i] = moved
	moved.SetOwnerSlot(i)
	p.conns[last] = nil
	p.conns = p.conns[:last]
	sc.SetOwnerSlot(-1)
}

// wrapRec carries one connection's component handlers plus the wrapper
// handlers that route them through the mailbox. The wrappers are built
// once per record and only capture the record pointer, so attaching a
// stream allocates nothing once the pool is warm. The record is released
// by the connection's close hook (closeRec), which simnet runs exactly
// once on every close path; a connection that never closes keeps its
// record until the world is collected.
type wrapRec struct {
	e *Env
	h cnet.StreamHandlers
	w cnet.StreamHandlers
}

func (m *Machine) getWrap() *wrapRec {
	if n := len(m.wrapFree); n > 0 {
		r := m.wrapFree[n-1]
		m.wrapFree[n-1] = nil
		m.wrapFree = m.wrapFree[:n-1]
		return r
	}
	r := &wrapRec{}
	// All three wrappers are always installed: simnet's delivery schedule
	// does not depend on handler presence, and a wrapper whose component
	// handler is nil posts nothing — exactly what a nil wrapper did.
	//
	// On a peer-initiated close, simnet runs the close hook (which
	// releases this record) immediately before OnClose, so OnClose reads
	// every field it needs before posting anything that could trigger a
	// reuse; putWrap deliberately leaves the fields intact.
	r.w = cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, msg cnet.Message) {
			if fn := r.h.OnMessage; fn != nil {
				r.e.p.postCall(call{sfn: fn, env: r.e, c: c, m: msg})
			}
		},
		OnClose: func(c cnet.Conn, err error) {
			e := r.e
			fn := r.h.OnClose
			e.p.dropConn(c)
			if fn != nil {
				e.p.postCall(call{rfn: fn, env: e, c: c, err: err})
			}
		},
		OnWritable: func(c cnet.Conn) {
			if fn := r.h.OnWritable; fn != nil {
				r.e.p.postCall(call{wfn: fn, env: r.e, c: c})
			}
		},
	}
	return r
}

func (m *Machine) putWrap(r *wrapRec) {
	// Fields are NOT cleared: a releasing close hook runs just before the
	// wrapper's own OnClose, which still reads them (see getWrap).
	m.wrapFree = append(m.wrapFree, r)
}

// dialRec carries one Dial's result callback and its pre-acquired
// wrapper record through the dial machinery without a per-dial closure.
// It is released as soon as the result callback has run; the wrapper
// record transfers to the connection on success and is reclaimed here
// only when no connection was ever created.
type dialRec struct {
	e      *Env
	result func(cnet.Conn, error) //availlint:skipfield result endpoint callback, re-registered via Env.RestoreDialer
	wr     *wrapRec               //availlint:skipfield wr wrapper record, rebuilt by the machine restore pass
	cb     func(cnet.Conn, error) //availlint:skipfield cb completion closure, rebuilt from result+wr on restore
	to     cnet.NodeID            // snapshot identity of the dial
	port   string
	owner  any //availlint:skipfield owner component record, re-supplied via Env.RestoreDialOwner
	slot   int //availlint:skipfield slot registry index, reassigned as restore re-registers in-flight dials
}

func (m *Machine) getDial() *dialRec {
	if n := len(m.dialFree); n > 0 {
		r := m.dialFree[n-1]
		m.dialFree[n-1] = nil
		m.dialFree = m.dialFree[:n-1]
		return r
	}
	r := &dialRec{}
	r.cb = func(c cnet.Conn, err error) {
		e := r.e
		mm := e.p.m
		if !e.live() {
			if c != nil {
				// Never adopted, so no close hook will release the
				// wrapper record; it stays with the dead conn and falls
				// to the GC.
				c.Close()
			} else {
				mm.putWrap(r.wr)
			}
			mm.putDial(r)
			return
		}
		if c != nil {
			e.p.adoptConn(c.(simnet.StreamConn), r.wr)
		} else {
			mm.putWrap(r.wr)
		}
		e.p.postCall(call{rfn: r.result, env: e, c: c, err: err, dial: true, to: r.to, port: r.port, m: r.owner})
		mm.putDial(r)
	}
	return r
}

func (m *Machine) putDial(r *dialRec) {
	if r.slot >= 0 && r.slot < len(m.dials) && m.dials[r.slot] == r {
		last := len(m.dials) - 1
		moved := m.dials[last]
		m.dials[r.slot] = moved
		moved.slot = r.slot
		m.dials[last] = nil
		m.dials = m.dials[:last]
	}
	r.e, r.result, r.wr, r.owner = nil, nil, nil, nil
	r.to, r.port, r.slot = cnet.None, "", -1
	m.dialFree = append(m.dialFree, r)
}

// closeRec is the pooled close hook installed by adoptConn: it prunes
// the connection from p.conns on every close path — local Close/Abort
// included — releases the connection's wrapper record, and returns
// itself to the pool (close hooks run at most once).
type closeRec struct {
	p   *Proc
	inc uint64
	c   cnet.Conn
	wr  *wrapRec
	fn  func()
}

func (m *Machine) getClose() *closeRec {
	if n := len(m.closeFree); n > 0 {
		r := m.closeFree[n-1]
		m.closeFree[n-1] = nil
		m.closeFree = m.closeFree[:n-1]
		return r
	}
	r := &closeRec{}
	r.fn = func() {
		p := r.p
		if p.incarnation == r.inc {
			p.dropConn(r.c)
		}
		if r.wr != nil {
			p.m.putWrap(r.wr)
		}
		p.m.putClose(r)
	}
	return r
}

func (m *Machine) putClose(r *closeRec) {
	r.p, r.c, r.wr = nil, nil, nil
	m.closeFree = append(m.closeFree, r)
}

// timerRec carries one AfterFunc callback through the sim kernel's
// pooled argument timers; released when it fires (or is overtaken by
// death of its incarnation). Stopped timers leak their record to the GC,
// which is rare and harmless.
type timerRec struct {
	e      *Env
	fn     func() //availlint:skipfield fn timer callback, re-supplied by the component via Env.RestoreTimer
	serial uint64
}

func (m *Machine) getTimer() *timerRec {
	if n := len(m.timerFree); n > 0 {
		r := m.timerFree[n-1]
		m.timerFree[n-1] = nil
		m.timerFree = m.timerFree[:n-1]
		return r
	}
	return &timerRec{}
}

func (m *Machine) putTimer(r *timerRec) {
	r.e, r.fn, r.serial = nil, nil, 0
	m.timerFree = append(m.timerFree, r)
}

// procTimerFire is the sim-kernel callback for procClock.AfterFunc: route
// the stored fn through the mailbox, or recycle immediately if the
// incarnation died while the timer was pending.
func procTimerFire(arg any) {
	r := arg.(*timerRec)
	e := r.e
	if !e.live() {
		e.p.m.putTimer(r)
		return
	}
	e.p.postCall(call{tr: r, env: e})
}

// Env implements cnet.Env for one incarnation of one process. Every method
// is a no-op once the incarnation is dead, so stale closures held by a
// previous life of a component can never act on the new one.
type Env struct {
	p           *Proc
	inc         uint64
	rand        *rand.Rand
	dgramPorts  []string //availlint:skipfield dgramPorts repopulated as restored components re-bind their ports
	listenPorts []string //availlint:skipfield listenPorts repopulated as restored components re-listen

	// dgramH keeps the raw component handler per bound port so snapshot
	// restore can rebuild pending mailbox datagram entries.
	dgramH map[string]func(from cnet.NodeID, m cnet.Message) //availlint:skipfield dgramH rebuilt as restored components re-bind their handlers
}

func (e *Env) live() bool { return e.p.alive && e.p.incarnation == e.inc }

// Local implements cnet.Env.
func (e *Env) Local() cnet.NodeID { return e.p.m.id }

// Machine returns the hosting machine (simulator-only extension used by
// harness wiring; protocol components must not depend on it).
func (e *Env) Machine() *Machine { return e.p.m }

// Clock implements cnet.Env: timers die with the incarnation and are
// delivered through the mailbox (so they are deferred by freezes, hangs
// and stalls).
func (e *Env) Clock() clock.Clock { return procClock{e} }

// Rand implements cnet.Env.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Events implements cnet.Env.
func (e *Env) Events() *metrics.Log {
	if e.p.m.log == nil {
		return &metrics.Log{}
	}
	return e.p.m.log
}

// Charge implements cnet.Env. A machine degraded by SetSlow charges
// scaled CPU time: the node-slow gray fault, invisible to binary health
// checks.
func (e *Env) Charge(d time.Duration) {
	if e.live() && d > 0 {
		if s := e.p.m.slow; s > 1 {
			d = time.Duration(float64(d) * s)
		}
		e.p.curCharge += d
	}
}

// Stall implements cnet.Env: the process blocks (disk queue full).
func (e *Env) Stall() {
	if !e.live() || e.p.stalled {
		return
	}
	e.p.stalled = true
	e.p.syncConnPause()
}

// Resume implements cnet.Env; callable from outside the process (disk
// completion context).
func (e *Env) Resume() {
	if !e.live() || !e.p.stalled {
		return
	}
	e.p.stalled = false
	e.p.syncConnPause()
	e.p.pump()
}

// Send implements cnet.Env.
func (e *Env) Send(to cnet.NodeID, class cnet.Class, port string, m cnet.Message, size int) {
	if e.live() {
		e.p.m.iface.Send(to, class, port, m, size)
	}
}

// Multicast implements cnet.Env.
func (e *Env) Multicast(group, port string, m cnet.Message, size int) {
	if e.live() {
		e.p.m.iface.Multicast(group, port, m, size)
	}
}

// JoinGroup implements cnet.Env.
func (e *Env) JoinGroup(group string) {
	if e.live() {
		e.p.m.iface.JoinGroup(group)
	}
}

// BindDatagram implements cnet.Env. Datagrams are dropped (not queued)
// while the process is not runnable — a non-reading process overflows its
// socket buffer.
func (e *Env) BindDatagram(port string, h func(from cnet.NodeID, m cnet.Message)) {
	if !e.live() {
		return
	}
	e.dgramPorts = append(e.dgramPorts, port)
	if e.dgramH == nil {
		e.dgramH = make(map[string]func(cnet.NodeID, cnet.Message))
	}
	e.dgramH[port] = h
	e.p.m.iface.BindDatagram(port, func(from cnet.NodeID, m cnet.Message) {
		if !e.live() || !e.p.runnable() {
			return
		}
		e.p.postCall(call{dfn: h, env: e, from: from, m: m, port: port})
	})
}

// Dial implements cnet.Env.
func (e *Env) Dial(to cnet.NodeID, class cnet.Class, port string, h cnet.StreamHandlers, result func(cnet.Conn, error)) {
	if !e.live() {
		return
	}
	wr := e.p.m.getWrap()
	wr.e, wr.h = e, h
	dr := e.p.m.getDial()
	dr.e, dr.result, dr.wr = e, result, wr
	dr.to, dr.port = to, port
	dr.owner, e.p.m.nextDialOwner = e.p.m.nextDialOwner, nil
	dr.slot = len(e.p.m.dials)
	e.p.m.dials = append(e.p.m.dials, dr)
	e.p.m.iface.Network().SetNextDialOwner(dr)
	e.p.m.iface.Dial(to, class, port, wr.w, dr.cb)
}

// TagNextDial tags the next Dial with the component record that owns its
// result callback. Components that keep several dials to one (node,
// port) in flight tag them, so a snapshot can tell them apart: the
// owner re-supplies the callbacks on restore (cnet.DialOwner).
func (e *Env) TagNextDial(owner any) { e.p.m.nextDialOwner = owner }

// Listen implements cnet.Env.
func (e *Env) Listen(port string, accept func(c cnet.Conn) cnet.StreamHandlers) {
	if !e.live() {
		return
	}
	e.listenPorts = append(e.listenPorts, port)
	e.p.m.iface.Listen(port, func(c cnet.Conn) cnet.StreamHandlers {
		// Handshake succeeds even while hung (TCP backlog); the conn is
		// adopted paused in that case. The wrapper record is acquired
		// before accept runs so the close hook can release it even when
		// accept sheds the connection by closing it synchronously (the
		// late wr.h store then writes to a released record, which is
		// harmless: nothing can reuse it before this function returns).
		wr := e.p.m.getWrap()
		wr.e = e
		e.p.adoptConn(c.(simnet.StreamConn), wr)
		wr.h = accept(c)
		return wr.w
	})
}

var _ cnet.Env = (*Env)(nil)

// procClock delivers timer callbacks through the process mailbox.
type procClock struct{ e *Env }

func (pc procClock) Now() time.Duration { return pc.e.p.m.sim.Now() }

func (pc procClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t, ok := pc.arm(d, fn)
	if !ok {
		return deadTimer{}
	}
	return t
}

// Schedule implements clock.Scheduler: AfterFunc without the handle.
// Returning procTimer through clock.Timer boxes it, one heap object per
// call; fire-and-forget callers (disk completions, deferred admissions)
// skip that and keep only the serial.
func (pc procClock) Schedule(d time.Duration, fn func()) uint64 {
	t, _ := pc.arm(d, fn)
	return t.serial
}

// arm schedules fn through a pooled timer record; ok is false (and
// nothing is armed) once the incarnation is dead.
func (pc procClock) arm(d time.Duration, fn func()) (t procTimer, ok bool) {
	e := pc.e
	if !e.live() {
		return procTimer{}, false
	}
	r := e.p.m.getTimer()
	e.p.timerSeq++
	r.e, r.fn, r.serial = e, fn, e.p.timerSeq
	return procTimer{t: e.p.m.sim.AfterArg(d, procTimerFire, r), serial: r.serial}, true
}

// Every delivers a periodic callback through the process mailbox with
// rearm-at-end semantics, so each rearm happens inside the mailbox
// dispatch of the previous tick and dies with the process/incarnation
// exactly as a hand-rolled rearm chain would: once live() fails, arm
// stops scheduling. The simulated clock uses a machine-native ticker
// rather than the generic clock.FuncTicker: the rearm path reuses the
// same pooled timerRec and kernel events (identical schedules, serials,
// and event counts), but never constructs a clock.Timer interface value
// — that per-period box is the entire steady-state heap allocation of
// an otherwise idle cluster.
func (pc procClock) Every(d time.Duration, fn func()) clock.Ticker {
	if !pc.e.live() {
		return deadTicker{}
	}
	if fn == nil {
		panic("clock: nil ticker function")
	}
	if d <= 0 {
		panic("clock: ticker period must be positive")
	}
	t := &procTicker{e: pc.e, period: d, fn: fn}
	t.fireFn = t.fire
	t.arm(d)
	return t
}

// procTicker is the simulated clock's Ticker. Semantics mirror
// clock.FuncTicker exactly (fire, run fn, rearm after fn returns; Stop
// inside the callback suppresses the rearm; Reschedule replaces it), and
// the pending one-shot is an ordinary proc timer — same pooled record,
// same serial sequence, same kernel callback — so the snapshot claim
// machinery needs no new cases.
type procTicker struct {
	e       *Env
	period  time.Duration
	fn      func()    //availlint:skipfield fn tick callback, re-supplied by the component on restore (Env.RestoreTicker)
	fireFn  func()    //availlint:skipfield fireFn once-bound dispatch closure, rebuilt with the ticker
	t       sim.Timer //availlint:skipfield t pending kernel handle, re-armed by serial claim on restore
	serial  uint64
	firing  bool
	rearmed bool
	stopped bool
}

// arm schedules the next fire as a plain proc timer, keeping the handle
// unboxed.
func (t *procTicker) arm(d time.Duration) {
	e := t.e
	if !e.live() {
		return
	}
	r := e.p.m.getTimer()
	e.p.timerSeq++
	r.e, r.fn, r.serial = e, t.fireFn, e.p.timerSeq
	t.t = e.p.m.sim.AfterArg(d, procTimerFire, r)
	t.serial = r.serial
}

func (t *procTicker) fire() {
	if t.stopped {
		return
	}
	t.firing, t.rearmed = true, false
	t.fn()
	t.firing = false
	if !t.stopped && !t.rearmed {
		t.arm(t.period)
	}
}

// Stop ends the loop; see the clock.Ticker contract.
func (t *procTicker) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	active := t.firing
	if t.t.Stop() {
		active = true
	}
	t.t, t.serial = sim.Timer{}, 0
	return active
}

// Reschedule retimes (or revives) the loop; see the clock.Ticker contract.
func (t *procTicker) Reschedule(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.stopped = false
	if t.firing {
		t.rearmed = true
	}
	t.t.Stop()
	t.arm(d)
}

// PendingTimer returns the pending (or fire-in-mailbox) timer handle for
// snapshot code, nil when stopped or never armed. Mirrors
// clock.FuncTicker.PendingTimer.
func (t *procTicker) PendingTimer() clock.Timer {
	if t.serial == 0 {
		return nil
	}
	return procTimer{t: t.t, serial: t.serial}
}

// Stopped reports whether Stop ended the loop (snapshot surface).
func (t *procTicker) Stopped() bool { return t.stopped }

// FireFunc returns the bound dispatch closure a restored pending timer
// must invoke (snapshot surface).
func (t *procTicker) FireFunc() func() { return t.fireFn }

// AdoptTimer attaches a restored pending timer handle (snapshot surface).
func (t *procTicker) AdoptTimer(h clock.Timer) {
	pt, ok := h.(procTimer)
	if !ok {
		panic(fmt.Sprintf("machine: procTicker cannot adopt timer %T", h))
	}
	t.t, t.serial = pt.t, pt.serial
}

var _ clock.Ticker = (*procTicker)(nil)

// procTimer is the handle AfterFunc returns: the kernel timer plus the
// proc-scoped serial snapshots use to re-identify pending timers. It
// holds the concrete kernel handle — not a clock.Timer interface — so
// returning it costs one interface allocation, not two (the heartbeat
// rearm path is allocation-budgeted). The zero kernel handle is inert,
// which is exactly what a restored fire-in-mailbox/spent handle needs.
type procTimer struct {
	t      sim.Timer
	serial uint64
}

func (t procTimer) Stop() bool { return t.t.Stop() }

// TimerSerial exposes the serial; components assert for it structurally
// (interface{ TimerSerial() uint64 }) when saving retained handles.
func (t procTimer) TimerSerial() uint64 { return t.serial }

type deadTimer struct{}

func (deadTimer) Stop() bool { return false }

type deadTicker struct{}

func (deadTicker) Stop() bool               { return false }
func (deadTicker) Reschedule(time.Duration) {}
