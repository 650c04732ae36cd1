// Package fme implements Fault Model Enforcement (§4.5): a per-node
// daemon that transforms faults outside the service's abstract fault
// model (disk timeouts, application hangs) into faults inside it (node
// crash, application crash-restart), so that the membership service and
// queue monitoring — whose views otherwise diverge — converge on a single
// consistent picture.
//
// The daemon periodically (i) probes the local disks through the SCSI
// generic interface and (ii) probes the local application server with
// simple HTTP requests. The paper's translation rules:
//
//   - disk faulty AND application unresponsive → take the whole node
//     offline for repair (the disk fault has wedged the server; a node
//     crash is something every subsystem understands);
//   - application unresponsive AND disk healthy → restart the application
//     process, converting a hang into a crash-restart sequence.
//
// A probe that is *refused* (nothing listening) means the application
// already crashed; that is inside the fault model and is left to the
// ordinary restart path, so the daemon takes no action for it.
package fme

import (
	"errors"
	"fmt"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/server"
)

// Control is the node-control surface the daemon acts through. The
// simulator backs it with machine.Machine; livenet with process handles.
type Control interface {
	// TakeOffline removes the whole node from service until repair.
	TakeOffline(reason string)
	// RestartApp kills and restarts the application process.
	RestartApp()
}

// Disk is the probe surface of the local disk subsystem.
type Disk interface {
	// Probe health-checks the disks, bypassing the request queue.
	Probe(timeout time.Duration, done func(healthy bool))
}

// Config parameterizes the daemon.
type Config struct {
	Self cnet.NodeID
	// ProbePeriod is the paper's 5 s test cadence.
	ProbePeriod time.Duration
	// ProbeTimeout bounds the HTTP probe (and the SCSI probe).
	ProbeTimeout time.Duration
	// Consecutive is how many consecutive unresponsive probes establish
	// "the application fails to respond" (hysteresis against transient
	// overload).
	Consecutive int
}

func (c Config) withDefaults() Config {
	if c.ProbePeriod <= 0 {
		c.ProbePeriod = 5 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Consecutive <= 0 {
		c.Consecutive = 2
	}
	return c
}

// Daemon is one node's FME process.
type Daemon struct {
	cfg  Config           //availlint:skipfield cfg construction config, identical across restores
	src  metrics.SourceID //availlint:skipfield src interned "fme/<self>" tag, rebuilt by the constructor
	env  cnet.Env         //availlint:skipfield env process backlink, supplied by the restore constructor
	disk Disk             //availlint:skipfield disk disk backlink, supplied by the restore constructor
	ctl  Control          //availlint:skipfield ctl node-control surface, supplied by the restore constructor

	appStrikes int // consecutive unresponsive HTTP probes
	probeSeq   uint64
	actions    uint64

	// probeT drives the probe loop. Each tick suppresses the automatic
	// rearm (Stop) and the asynchronous decide() revives the ticker once
	// both probe verdicts are in, so the next tick is a full ProbePeriod
	// after the decision, not after the probes were sent.
	probeT clock.Ticker

	// probes holds the probe rounds still in progress: a verdict, the
	// app probe's timeout, its dial or its connection outstanding.
	probes []*probe

	// diskTag and dialTag, when the environment supports them, tag each
	// round's disk probe and dial with the round for snapshot identity.
	diskTag interface{ SetNextOwner(owner any) } //availlint:skipfield diskTag environment capability, re-derived by the constructor
	dialTag cnet.DialTagger                      //availlint:skipfield dialTag environment capability, re-derived by the constructor
}

// NewDaemon starts the FME daemon.
func NewDaemon(cfg Config, env cnet.Env, disk Disk, ctl Control) *Daemon {
	d := newDaemon(cfg, env, disk, ctl)
	d.probeT = d.env.Clock().Every(d.cfg.ProbePeriod, d.tick)
	return d
}

// newDaemon builds the daemon without scheduling anything: shared by
// NewDaemon and the snapshot restore path.
func newDaemon(cfg Config, env cnet.Env, disk Disk, ctl Control) *Daemon {
	d := &Daemon{cfg: cfg.withDefaults(), env: env, disk: disk, ctl: ctl}
	d.src = metrics.InternSource(fmt.Sprintf("fme/%d", d.cfg.Self))
	d.diskTag, _ = disk.(interface{ SetNextOwner(owner any) })
	d.dialTag, _ = env.(cnet.DialTagger)
	return d
}

// Actions returns how many fault translations the daemon performed.
func (d *Daemon) Actions() uint64 { return d.actions }

func (d *Daemon) emit(detail string) {
	d.env.Events().EmitID(d.env.Clock().Now(), d.src, metrics.KFMEAction, int(d.cfg.Self), detail)
}

// appProbeResult classifies one HTTP probe.
type appProbeResult int

const (
	appResponsive   appProbeResult = iota
	appUnresponsive                // connected (or timed out connecting) but no answer: hang
	appDead                        // connection refused: crash, outside our jurisdiction
)

func (d *Daemon) tick() {
	// Suppress the automatic rearm up front: decide() revives the ticker,
	// and doing it first keeps a synchronous probe completion safe.
	d.probeT.Stop()
	p := d.newProbe()
	if d.diskTag != nil {
		d.diskTag.SetNextOwner(p)
	}
	d.disk.Probe(d.cfg.ProbeTimeout, p.diskDone)
	p.probeApp()
}

// probe is one round: a disk probe and an HTTP probe of the local
// server, decided once both verdicts are in.
type probe struct {
	d *Daemon //availlint:skipfield d owner backlink, set when the round is created

	diskIn, diskHealthy bool
	appIn               bool // the HTTP probe finished
	app                 appProbeResult

	conn       cnet.Conn // the probe connection once the dial succeeds
	connOpen   bool      // conn not yet closed
	dialing    bool      // the dial has not reported
	timeoutSer uint64    // the pending timeout's serial (0: fired)

	h      cnet.StreamHandlers    //availlint:skipfield h bound handler set, rebuilt when the round is created
	onDial func(cnet.Conn, error) //availlint:skipfield onDial bound dial callback, rebuilt when the round is created
}

func (d *Daemon) newProbe() *probe {
	p := &probe{d: d}
	p.h = cnet.StreamHandlers{OnMessage: p.onMessage, OnClose: p.onClose}
	p.onDial = p.dialResult
	d.probes = append(d.probes, p)
	return p
}

// probeApp sends one HTTP probe to the local server.
func (p *probe) probeApp() {
	d := p.d
	d.probeSeq++
	p.timeoutSer = clock.Schedule(d.env.Clock(), d.cfg.ProbeTimeout, p.timeout)
	p.dialing = true
	if d.dialTag != nil {
		d.dialTag.TagNextDial(p)
	}
	d.env.Dial(d.env.Local(), cnet.ClassClient, server.PortHTTP, p.h, p.onDial)
}

func (p *probe) timeout() {
	p.timeoutSer = 0
	if p.conn != nil {
		p.conn.Close()
		p.connOpen = false
		cnet.ReleaseConn(p.conn) // pin taken when the dial stored it
	}
	p.finish(appUnresponsive)
	p.retire()
}

func (p *probe) onMessage(c cnet.Conn, m cnet.Message) {
	if resp, ok := m.(*server.RespMsg); ok && resp.Probe {
		resp.Release()
		c.Close()
		if c == p.conn {
			p.connOpen = false
		}
		p.finish(appResponsive)
		p.retire()
	}
}

func (p *probe) onClose(c cnet.Conn, err error) {
	if c == p.conn {
		p.connOpen = false
	}
	if errors.Is(err, cnet.ErrReset) {
		p.finish(appDead)
	}
	p.retire()
}

func (p *probe) dialResult(c cnet.Conn, err error) {
	p.dialing = false
	switch {
	case err != nil && errors.Is(err, cnet.ErrRefused):
		p.finish(appDead)
	case err != nil:
		p.finish(appUnresponsive)
	default:
		p.conn, p.connOpen = c, true
		cnet.RetainConn(c) // held across events until the timeout fires
		c.TrySend(&server.ReqMsg{ID: p.d.probeSeq, Probe: true}, 64)
	}
	p.retire()
}

// RestoreDialEndpoint implements cnet.DialOwner for the probe's dial.
func (p *probe) RestoreDialEndpoint() (cnet.StreamHandlers, func(cnet.Conn, error)) {
	return p.h, p.onDial
}

// RestoreProbeDone implements simdisk.ProbeOwner.
func (p *probe) RestoreProbeDone() func(healthy bool) { return p.diskDone }

func (p *probe) diskDone(h bool) {
	p.diskIn, p.diskHealthy = true, h
	p.decide()
	p.retire()
}

func (p *probe) finish(r appProbeResult) {
	if p.appIn {
		return
	}
	p.appIn, p.app = true, r
	p.decide()
}

// decide runs once, when the second verdict arrives.
func (p *probe) decide() {
	if !p.diskIn || !p.appIn {
		return
	}
	d := p.d
	d.decide(p.diskHealthy, p.app)
	d.probeT.Reschedule(d.cfg.ProbePeriod)
}

// retire drops the round once nothing of it is outstanding.
func (p *probe) retire() {
	if !p.diskIn || !p.appIn || p.dialing || p.timeoutSer != 0 || p.connOpen {
		return
	}
	d := p.d
	for i, q := range d.probes {
		if q == p {
			d.probes = append(d.probes[:i], d.probes[i+1:]...)
			return
		}
	}
}

// decide applies the translation rules.
func (d *Daemon) decide(diskHealthy bool, app appProbeResult) {
	if app == appUnresponsive {
		d.appStrikes++
	} else {
		d.appStrikes = 0
	}
	switch {
	case !diskHealthy && d.appStrikes >= d.cfg.Consecutive:
		// Rule 1: disk fault wedged the application → node crash.
		d.actions++
		d.emit("disk faulty + app unresponsive: taking node offline")
		d.appStrikes = 0
		d.ctl.TakeOffline("fme: disk failure")
	case diskHealthy && d.appStrikes >= d.cfg.Consecutive:
		// Rule 2: hang with a healthy disk → crash-restart.
		d.actions++
		d.emit("app unresponsive, disk healthy: restarting application")
		d.appStrikes = 0
		d.ctl.RestartApp()
	}
}
