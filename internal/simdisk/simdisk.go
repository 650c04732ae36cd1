// Package simdisk models the per-node SCSI disk subsystem of the paper's
// testbed (two disks per node, accessed through PRESS's pool of disk
// helper threads and a shared disk queue) and its one fault mode, the SCSI
// timeout: operations submitted to a faulty disk never complete.
//
// The structure matters for reproducing Figure 4. When one disk times out,
// the helper threads blocked on it are captured one by one; once all
// threads are stuck the shared disk queue fills at the node's miss rate,
// and then the PRESS main thread blocks trying to enqueue — which silences
// its heartbeats and stalls the entire cooperative cluster.
package simdisk

import (
	"math/rand"
	"time"

	"press/internal/sim"
)

// Config describes a node's disk subsystem.
type Config struct {
	// MeanService is the average time one disk takes to satisfy one read
	// (seek + rotation + transfer for a 27 KB file).
	MeanService time.Duration
	// JitterFrac spreads individual service times uniformly in
	// [Mean*(1-j), Mean*(1+j)].
	JitterFrac float64
	// QueueCap bounds the shared queue of not-yet-started operations; a
	// full queue blocks the PRESS main thread.
	QueueCap int
	// Workers is the number of disk helper threads.
	Workers int
}

// DefaultConfig models the 2x10K rpm SCSI subsystem at the simulation's
// time scale. (The whole simulation runs ~10x slower than the 2003
// hardware so that a fault-injection campaign stays cheap; CPU and disk
// costs share the scale, so ratios — and therefore availability — are
// preserved.)
func DefaultConfig() Config {
	return Config{MeanService: 65 * time.Millisecond, JitterFrac: 0.3, QueueCap: 16, Workers: 2}
}

// Disk is a single device: a fault flag and a service-time sampler.
type Disk struct {
	sim    *sim.Sim //availlint:skipfield sim kernel backlink; the restored array is built over the restored kernel
	rng    *rand.Rand
	mean   time.Duration //availlint:skipfield mean construction config, identical across forks
	jitter float64       //availlint:skipfield jitter construction config, identical across forks
	faulty bool
	// degraded multiplies service times when > 1 (the gray disk fault):
	// reads and probes still complete — just slower — so binary SCSI
	// health checks keep passing.
	degraded float64
	reads    uint64
	arr      *Array //availlint:skipfield arr owner backlink, set at construction
}

// Faulty reports the fault state.
func (d *Disk) Faulty() bool { return d.faulty }

// Degraded reports whether the device is in gray degradation.
func (d *Disk) Degraded() bool { return d.degraded > 1 }

// SetDegraded injects (factor > 1) or repairs (factor <= 1) the gray
// disk fault: every service time is multiplied by factor, while probes
// keep reporting healthy.
func (d *Disk) SetDegraded(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	d.degraded = factor
}

// Reads returns the number of reads this device completed.
func (d *Disk) Reads() uint64 { return d.reads }

// SetFaulty injects or repairs the SCSI-timeout fault. Repair releases
// any helper threads blocked on this device.
func (d *Disk) SetFaulty(f bool) {
	if d.faulty == f {
		return
	}
	d.faulty = f
	if !f && d.arr != nil {
		d.arr.releaseBlocked(d)
	}
}

func (d *Disk) serviceTime() time.Duration {
	t := d.mean
	if d.jitter > 0 {
		f := 1 - d.jitter + 2*d.jitter*d.rng.Float64()
		t = time.Duration(float64(d.mean) * f)
	}
	if d.degraded > 1 {
		t = time.Duration(float64(t) * d.degraded)
	}
	return t
}

type op struct {
	key   int
	done  func(ok bool) //availlint:skipfield done completion closure, rebuilt from the owner tag on restore
	owner any           // snapshot identity, set via SetNextOwner
}

// Array is a node's disk subsystem: devices, helper threads, and the
// shared queue. Documents are placed on devices by key, as PRESS spreads
// its replicated document set across the local disks.
type Array struct {
	sim     *sim.Sim //availlint:skipfield sim kernel backlink; the restored array is built over the restored kernel
	cfg     Config   //availlint:skipfield cfg construction config, identical across forks
	disks   []*Disk
	queue   []op
	idle    int            // free helper threads
	blocked map[*Disk][]op // threads captured by a faulty device, with their ops
	onSpace []spaceCb
	// spaceSpare is the previous onSpace backing array, swapped back in
	// when finish drains the callbacks so steady-state NotifySpace
	// registration allocates nothing.
	spaceSpare []spaceCb //availlint:skipfield spaceSpare allocation-reuse spare; an empty spare after restore is behaviorally identical
	svcFree    []*svcOp  //availlint:skipfield svcFree free list; an empty list after restore is behaviorally identical

	// nextOwner tags the next Read or NotifySpace with the record that
	// owns its callback, for snapshot identity. Consumed by that call.
	nextOwner any //availlint:skipfield nextOwner transient tag consumed within the same call it is set for; nil between events
}

// spaceCb is one registered NotifySpace callback plus its owner tag.
type spaceCb struct {
	fn    func() //availlint:skipfield fn callback closure, rebuilt from the owner tag on restore
	owner any
}

// SetNextOwner tags the next Read or NotifySpace call with its owning
// record so snapshots can serialize the callback as a reference.
func (a *Array) SetNextOwner(owner any) { a.nextOwner = owner }

// svcOp carries one in-service read through the sim kernel's pooled
// argument timers, replacing a per-dispatch closure.
type svcOp struct {
	a *Array
	d *Disk
	o op
}

func (a *Array) getSvc() *svcOp {
	if n := len(a.svcFree); n > 0 {
		r := a.svcFree[n-1]
		a.svcFree[n-1] = nil
		a.svcFree = a.svcFree[:n-1]
		return r
	}
	return &svcOp{a: a}
}

func (a *Array) putSvc(r *svcOp) {
	r.d, r.o = nil, op{}
	a.svcFree = append(a.svcFree, r)
}

// svcDone is the service-completion callback for Array.start.
func svcDone(arg any) {
	r := arg.(*svcOp)
	a, d, o := r.a, r.d, r.o
	a.putSvc(r)
	if d.faulty {
		// Fault arrived mid-service: the thread is now stuck.
		a.blocked[d] = append(a.blocked[d], o)
		return
	}
	d.reads++
	a.finish()
	o.done(true)
}

// NewArray builds the subsystem with n devices.
func NewArray(s *sim.Sim, rng *rand.Rand, cfg Config, n int) *Array {
	if n <= 0 {
		panic("simdisk: array needs at least one disk")
	}
	if cfg.MeanService <= 0 {
		cfg.MeanService = DefaultConfig().MeanService
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultConfig().QueueCap
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	a := &Array{sim: s, cfg: cfg, idle: cfg.Workers, blocked: make(map[*Disk][]op)}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, &Disk{sim: s, rng: rng, mean: cfg.MeanService, jitter: cfg.JitterFrac, arr: a})
	}
	return a
}

// Disks returns the member devices (for fault injection and probing).
func (a *Array) Disks() []*Disk { return a.disks }

// QueueLen reports the shared-queue backlog (excluding in-service ops).
func (a *Array) QueueLen() int { return len(a.queue) }

// Full reports whether a Read would be rejected right now.
func (a *Array) Full() bool { return a.idle == 0 && len(a.queue) >= a.cfg.QueueCap }

// Read submits a read for the document with the given placement key.
// done(true) runs after service (much later if the device is faulty and
// must be repaired first). Read reports false — without accepting the
// operation — when the queue is full; the caller stalls and retries after
// NotifySpace, exactly like the PRESS main thread.
func (a *Array) Read(key int, done func(ok bool)) bool {
	o := op{key: key, done: done, owner: a.nextOwner}
	a.nextOwner = nil
	if a.idle > 0 {
		a.start(o)
		return true
	}
	if len(a.queue) >= a.cfg.QueueCap {
		return false
	}
	a.queue = append(a.queue, o)
	return true
}

// NotifySpace registers a one-shot callback invoked the next time an
// operation could be accepted again.
func (a *Array) NotifySpace(fn func()) {
	a.onSpace = append(a.onSpace, spaceCb{fn: fn, owner: a.nextOwner})
	a.nextOwner = nil
}

// AnyFaulty reports whether any device is faulty.
func (a *Array) AnyFaulty() bool {
	for _, d := range a.disks {
		if d.faulty {
			return true
		}
	}
	return false
}

// Probe health-checks every device the way the FME daemon does through
// the SCSI generic interface: it bypasses the request queue, so it works
// even when the queue is full and all helper threads are stuck. A device
// faulty when probed answers after timeout, a healthy one after one
// service time; done(false) fires as soon as one answers unhealthy,
// done(true) once all pass. The answers are callback-free kernel events,
// so a snapshot can carry a probe in flight (SaveProbes); the next owner
// tag (SetNextOwner) names the caller that re-supplies done on restore.
func (a *Array) Probe(timeout time.Duration, done func(healthy bool)) {
	op := &probeOp{done: done, owner: a.nextOwner, remaining: len(a.disks)}
	a.nextOwner = nil
	for _, d := range a.disks {
		r := &devProbe{op: op, a: a, d: d, faulty: d.faulty}
		delay := timeout
		if !d.faulty {
			delay = d.serviceTime()
		}
		a.sim.AfterArg(delay, devProbeFire, r)
	}
}

// probeOp aggregates one Array.Probe over the devices.
type probeOp struct {
	done      func(healthy bool) //availlint:skipfield done caller callback, re-supplied by the owner on restore
	owner     any                //availlint:skipfield owner snapshot identity, saved as an owner reference
	remaining int
	reported  bool
}

func (op *probeOp) report(h bool) {
	if op.reported {
		return
	}
	if !h {
		op.reported = true
		op.done(false)
		return
	}
	op.remaining--
	if op.remaining == 0 {
		op.reported = true
		op.done(true)
	}
}

// devProbe is one device's pending answer; a healthy device answers with
// its health at that moment.
type devProbe struct {
	op     *probeOp
	a      *Array //availlint:skipfield a owning array, known to the restoring section
	d      *Disk
	faulty bool
}

func devProbeFire(arg any) {
	r := arg.(*devProbe)
	r.op.report(!r.faulty && !r.d.faulty)
}

// start dispatches o on a free helper thread.
func (a *Array) start(o op) {
	d := a.disks[o.key%len(a.disks)]
	a.idle--
	if d.faulty {
		// The thread blocks on the hung device until repair.
		a.blocked[d] = append(a.blocked[d], o)
		return
	}
	r := a.getSvc()
	r.d, r.o = d, o
	a.sim.AfterArg(d.serviceTime(), svcDone, r)
}

// finish returns a thread to the pool and dispatches queued work.
func (a *Array) finish() {
	a.idle++
	for a.idle > 0 && len(a.queue) > 0 {
		next := a.queue[0]
		copy(a.queue, a.queue[1:])
		a.queue = a.queue[:len(a.queue)-1]
		a.start(next)
	}
	if !a.Full() && len(a.onSpace) > 0 {
		// Swap buffers so callbacks registering anew (the common retry
		// pattern) append into the spare array rather than a fresh one.
		cbs := a.onSpace
		a.onSpace = a.spaceSpare[:0]
		for i, cb := range cbs {
			cbs[i] = spaceCb{}
			cb.fn()
		}
		a.spaceSpare = cbs[:0]
	}
}

// releaseBlocked restarts the ops whose threads were captured by d.
func (a *Array) releaseBlocked(d *Disk) {
	ops := a.blocked[d]
	if len(ops) == 0 {
		return
	}
	delete(a.blocked, d)
	for _, o := range ops {
		a.idle++ // thread released...
		a.startOrQueue(o)
	}
}

func (a *Array) startOrQueue(o op) {
	if a.idle > 0 {
		a.start(o)
		return
	}
	a.queue = append(a.queue, o) // may transiently exceed cap; drains immediately
}
