package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"press"
	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/livenet"
	"press/internal/machine"
	"press/internal/metrics"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/template7"
)

// microLimit bounds each microbenchmark.
const microLimit = 30 * time.Second

// micro runs every layer's microbenchmark and records its metric. Each
// times calls into one module's public functions; the small ones report
// the median of three repetitions.
func micro(r *run) {
	type bench struct {
		name, unit string
		fn         func() float64
	}
	rep3 := func(fn func() float64) func() float64 {
		return func() float64 { return median([]float64{fn(), fn(), fn()}) }
	}
	var benches []bench
	for _, tier := range []struct {
		name  string
		delay time.Duration
	}{{"l0", time.Microsecond}, {"l1", time.Millisecond}, {"l2", 100 * time.Millisecond}, {"overflow", 10 * time.Second}} {
		d := tier.delay
		benches = append(benches, bench{"sim.ns_per_event." + tier.name, "ns", rep3(func() float64 { return simChain(d) })})
	}
	benches = append(benches,
		bench{"simnet.dgram_ns", "ns", rep3(simnetDgram)},
		bench{"simnet.dial_ns", "ns", rep3(simnetDial)},
		bench{"simnet.stream_rtt_ns", "ns", rep3(simnetStream)},
	)
	for _, batched := range []bool{false, true} {
		mode := "unbatched"
		if batched {
			mode = "batched"
		}
		for _, n := range []int{4, 32, 256} {
			n, batched := n, batched
			benches = append(benches, bench{fmt.Sprintf("simnet.mcast_ns_per_recipient.%s.n%d", mode, n), "ns",
				rep3(func() float64 { return simnetMcast(n, batched) })})
		}
	}
	benches = append(benches,
		bench{"machine.dispatch_ns", "ns", rep3(func() float64 { return machineDispatch(false) })},
		bench{"machine.dispatch_charge_ns", "ns", rep3(func() float64 { return machineDispatch(true) })},
		bench{"simdisk.read_ns", "ns", rep3(simdiskRead)},
		bench{"metrics.emit_ns", "ns", rep3(metricsEmit)},
		bench{"template7.extract_us", "us", rep3(template7Extract)},
	)
	for _, b := range benches {
		r.arm(b.name, microLimit)
		r.set(b.name, b.unit, b.fn())
	}

	r.arm("server.host_ns_per_served.n4", microLimit)
	ns4, allocs := steadyServed(4)
	r.set("server.host_ns_per_served.n4", "ns", ns4)
	r.set("runtime.allocs_per_event", "count", allocs)
	r.arm("server.host_ns_per_served.n256", microLimit)
	ns256, _ := steadyServed(256)
	r.set("server.host_ns_per_served.n256", "ns", ns256)

	r.arm("membership.ring_round_us.n4", microLimit)
	r.set("membership.ring_round_us.n4", "us", idleRound(4))
	r.arm("membership.gossip_round_us.n256", microLimit)
	r.set("membership.gossip_round_us.n256", "us", idleRound(256))

	for _, n := range []int{4, 256} {
		name := fmt.Sprintf("harness.build_ms.n%d", n)
		r.arm(name, microLimit)
		r.set(name, "ms", buildMS(n))
	}
	r.arm("harness.saturation_s", microLimit)
	r.set("harness.saturation_s", "s", saturationS())

	for _, n := range []int{4, 64} {
		r.arm(fmt.Sprintf("snapshot n%d", n), microLimit)
		snapshotCosts(r, n)
	}
	r.arm("chaos", microLimit)
	chaosCosts(r)
	r.arm("livenet", microLimit)
	livenetRTT(r)
	r.arm("live cluster", microLimit)
	liveCosts(r)
}

// simChain is the kernel's cost per event for 1024 self-rescheduling
// AfterArg chains whose delay lands every event in one queue tier.
func simChain(delay time.Duration) float64 {
	const chains, events = 1024, 400_000
	s := sim.New(1)
	var fn func(any)
	fn = func(any) { s.AfterArg(delay, fn, nil) }
	for i := 0; i < chains; i++ {
		s.AfterArg(delay+time.Duration(i)*delay/chains, fn, nil)
	}
	for i := 0; i < chains*4; i++ {
		s.Step()
	}
	t := time.Now()
	for i := 0; i < events; i++ {
		s.Step()
	}
	return nsPer(time.Since(t), events)
}

// newNet builds a simulated network of n interfaces.
func newNet(n int, batched bool) (*sim.Sim, []*simnet.Iface) {
	s := sim.New(1)
	cfg := simnet.DefaultConfig()
	cfg.BatchDelivery = batched
	nw := simnet.New(s, cfg, &metrics.Log{})
	ifs := make([]*simnet.Iface, n)
	for i := range ifs {
		ifs[i] = nw.AddIface(cnet.NodeID(i))
	}
	return s, ifs
}

var benchMsg cnet.Message = &frontend.PingMsg{}

// simnetDgram is the cost of one datagram, ping-ponged between two
// interfaces, including its kernel event.
func simnetDgram() float64 {
	const n = 200_000
	s, ifs := newNet(2, false)
	count := 0
	for i, ifc := range ifs {
		ifc, peer := ifc, cnet.NodeID(1-i)
		ifc.BindDatagram("p", func(cnet.NodeID, cnet.Message) {
			if count++; count < n {
				ifc.Send(peer, cnet.ClassIntra, "p", benchMsg, 64)
			}
		})
	}
	t := time.Now()
	ifs[0].Send(1, cnet.ClassIntra, "p", benchMsg, 64)
	s.Run()
	return nsPer(time.Since(t), count)
}

var noStream = cnet.StreamHandlers{
	OnMessage: func(cnet.Conn, cnet.Message) {},
	OnClose:   func(cnet.Conn, error) {},
}

// simnetDial is the cost of one connect handshake plus close.
func simnetDial() float64 {
	const n = 50_000
	s, ifs := newNet(2, false)
	ifs[1].Listen("http", func(cnet.Conn) cnet.StreamHandlers { return noStream })
	count := 0
	var dial func()
	dial = func() {
		ifs[0].Dial(1, cnet.ClassIntra, "http", noStream, func(c cnet.Conn, err error) {
			if err == nil {
				c.Close()
			}
			if count++; count < n {
				dial()
			}
		})
	}
	t := time.Now()
	dial()
	s.Run()
	return nsPer(time.Since(t), count)
}

// simnetStream is the cost of one message round trip on an open stream.
func simnetStream() float64 {
	const n = 100_000
	s, ifs := newNet(2, false)
	ifs[1].Listen("echo", func(cnet.Conn) cnet.StreamHandlers {
		return cnet.StreamHandlers{
			OnMessage: func(c cnet.Conn, m cnet.Message) { c.TrySend(m, 64) },
			OnClose:   func(cnet.Conn, error) {},
		}
	})
	count := 0
	h := cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) {
			if count++; count < n {
				c.TrySend(m, 64)
			}
		},
		OnClose: func(cnet.Conn, error) {},
	}
	var t time.Time
	ifs[0].Dial(1, cnet.ClassIntra, "echo", h, func(c cnet.Conn, err error) {
		if err == nil {
			t = time.Now()
			c.TrySend(benchMsg, 64)
		}
	})
	s.Run()
	return nsPer(time.Since(t), count)
}

// simnetMcast is the cost per recipient of a multicast to an n-member
// group, one fan-out per millisecond.
func simnetMcast(n int, batched bool) float64 {
	fanouts := 200_000 / n
	s, ifs := newNet(n, batched)
	got := 0
	for _, ifc := range ifs {
		ifc.JoinGroup("g")
		ifc.BindDatagram("m", func(cnet.NodeID, cnet.Message) { got++ })
	}
	sent := 0
	var send func(any)
	send = func(any) {
		ifs[0].Multicast("g", "m", benchMsg, 64)
		if sent++; sent < fanouts {
			s.AfterArg(time.Millisecond, send, nil)
		}
	}
	t := time.Now()
	s.AfterArg(time.Millisecond, send, nil)
	s.Run()
	return nsPer(time.Since(t), got)
}

// machineDispatch is the cost of one process-clock timer callback: the
// kernel event, the mailbox post and the dispatch, with or without a
// CPU charge.
func machineDispatch(charge bool) float64 {
	const n = 300_000
	s := sim.New(1)
	log := &metrics.Log{}
	nw := simnet.New(s, simnet.DefaultConfig(), log)
	disks := simdisk.NewArray(s, rand.New(rand.NewSource(1)), simdisk.DefaultConfig(), 1)
	m := machine.New(s, nw, 0, disks, log)
	count := 0
	m.AddProc("bench", func(env *machine.Env) {
		var tick func()
		tick = func() {
			if charge {
				env.Charge(time.Microsecond)
			}
			if count++; count < n {
				env.Clock().AfterFunc(time.Microsecond, tick)
			}
		}
		env.Clock().AfterFunc(time.Microsecond, tick)
	})
	t := time.Now()
	s.Run()
	return nsPer(time.Since(t), count)
}

// simdiskRead is the cost of one disk read through the array's queue.
func simdiskRead() float64 {
	const n = 200_000
	s := sim.New(1)
	a := simdisk.NewArray(s, rand.New(rand.NewSource(1)), simdisk.DefaultConfig(), 2)
	count := 0
	var read func(bool)
	read = func(bool) {
		if count++; count < n {
			a.Read(count, read)
		}
	}
	t := time.Now()
	a.Read(0, read)
	s.Run()
	return nsPer(time.Since(t), count)
}

// metricsEmit is the cost of one Log.EmitInt on a growing log.
func metricsEmit() float64 {
	const n = 500_000
	var l metrics.Log
	src, kind := metrics.InternSource("perfbench"), metrics.InternKind("perfbench-emit")
	t := time.Now()
	for i := 0; i < n; i++ {
		l.EmitInt(time.Duration(i), src, kind, 0, "v=%d", int64(i))
	}
	return nsPer(time.Since(t), n)
}

// template7Extract is the cost of one 7-stage template extraction from a
// ten-minute throughput series with one dip.
func template7Extract() float64 {
	const n = 20_000
	tp := metrics.NewSeries(time.Second)
	for sec := 0; sec < 600; sec++ {
		v := 100.0
		switch {
		case sec >= 100 && sec < 200:
			v = 20
		case sec >= 200 && sec < 320:
			v = 60
		}
		tp.Add(time.Duration(sec)*time.Second, v)
	}
	m := template7.Markers{Fault: 100 * time.Second, Detect: 110 * time.Second, Stable1: 120 * time.Second,
		Recover: 300 * time.Second, Stable2: 320 * time.Second, End: 600 * time.Second}
	t := time.Now()
	for i := 0; i < n; i++ {
		if _, err := template7.Extract("bench", tp, m, 100); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: template7:", err)
			return 0
		}
	}
	return float64(time.Since(t)) / float64(time.Microsecond) / n
}

// clusterOptions is a COOP world of n server nodes at 40 req/s per node:
// the Faithful suite at n=4, the Scalable suite above. The explicit
// rate skips the saturation probe.
func clusterOptions(n int) press.Options {
	o := press.FastOptions(1)
	o.Nodes = n
	if n > 4 {
		o.Protocol = press.Scalable
	}
	o.Rate = 40 * float64(n)
	return o
}

func build(o press.Options) *press.Deployment {
	return press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
}

// steadyServed is the host time per served request over a fault-free
// window after a 20 s settle, and the allocations per simulated event
// in that window.
func steadyServed(n int) (nsPerServed, allocsPerEvent float64) {
	dep := build(clusterOptions(n))
	dep.Gen.Start()
	dep.Sim.RunFor(20 * time.Second)
	window := 30 * time.Second
	if n > 4 {
		window = 10 * time.Second
	}
	served := func() uint64 {
		var sum uint64
		for i := range dep.Machines {
			if s := dep.Server(i); s != nil {
				sum += s.Stats().Served
			}
		}
		return sum
	}
	s0, e0 := served(), dep.Sim.EventsFired()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	dep.Sim.RunFor(window)
	host := time.Since(t)
	runtime.ReadMemStats(&m1)
	events := dep.Sim.EventsFired() - e0
	return nsPer(host, int(served()-s0)), float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// idleRound is the host time per membership period of an idle world
// (no client load): the ring's 5 s heartbeat at n=4, the gossip's 1 s
// round at n=256.
func idleRound(n int) float64 {
	dep := build(clusterOptions(n))
	period := 5 * time.Second
	if n > 4 {
		period = time.Second
	}
	dep.Sim.RunFor(30 * time.Second)
	const rounds = 20
	t := time.Now()
	dep.Sim.RunFor(rounds * period)
	return float64(time.Since(t)) / float64(time.Microsecond) / rounds
}

// buildMS is the host time to build an n-node world.
func buildMS(n int) float64 {
	reps := 3
	if n > 4 {
		reps = 1
	}
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		build(clusterOptions(n))
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs)
}

// saturationS is the host time of the saturation probe a campaign runs
// before its first episode.
func saturationS() float64 {
	c := press.New(press.WithVersion(press.COOP), press.WithOptions(press.FastOptions(1)), press.WithWorkers(1))
	t := time.Now()
	c.Saturation()
	return time.Since(t).Seconds()
}

// snapshotCosts takes, loads and restores a snapshot of a warmed world:
// the Faithful COOP world at n=4, the Scalable one at n=64. It uses
// TakeSnapshot on the benchmark's own deployment; a WarmChaosSnapshot
// blob carries chaos-runner state RestoreSnapshot does not read.
func snapshotCosts(r *run, n int) {
	dep := build(clusterOptions(n))
	dep.Gen.Start()
	dep.Sim.RunFor(20 * time.Second)
	var take, load, restore []float64
	var size int
	for i := 0; i < 3; i++ {
		t := time.Now()
		snap, err := press.TakeSnapshot(dep)
		take = append(take, ms(time.Since(t)))
		if err != nil {
			r.wrong("snapshot n%d take: %v", n, err)
			return
		}
		size = snap.Size()
		t = time.Now()
		loaded, err := press.LoadSnapshot(snap.Bytes())
		load = append(load, ms(time.Since(t)))
		if err != nil {
			r.wrong("snapshot n%d load: %v", n, err)
			return
		}
		t = time.Now()
		_, err = press.RestoreSnapshot(loaded)
		restore = append(restore, ms(time.Since(t)))
		if err != nil {
			r.wrong("snapshot n%d restore: %v", n, err)
			return
		}
	}
	sfx := fmt.Sprintf(".n%d", n)
	r.set("snapshot.take_ms"+sfx, "ms", median(take))
	r.set("snapshot.load_ms"+sfx, "ms", median(load))
	r.set("snapshot.restore_ms"+sfx, "ms", median(restore))
	r.set("snapshot.bytes"+sfx, "bytes", float64(size))
}

// chaosCosts is the host time to generate and to judge one chaos
// schedule, over four seeds played from the warm-fork snapshot.
func chaosCosts(r *run) {
	o, rc, gen := warmForkConfig(1)
	prev := press.SetGlobalWorkers(1)
	defer press.SetGlobalWorkers(prev)
	press.ResetGlobalCaches()
	snap, err := press.WarmChaosSnapshot(press.COOP, o, rc)
	if err != nil {
		r.wrong("chaos snapshot: %v", err)
		return
	}
	it := newIteration()
	st := playSeeds(r, snap, o, rc, gen, press.ChaosSeeds(4), nil, &it)
	r.set("chaos.generate_us", "us", median(st.generate))
	r.set("chaos.check_us", "us", median(st.check))
}

// livenetRTT is the round-trip time of a datagram and of a stream
// message between two live processes on loopback.
func livenetRTT(r *run) {
	const n = 300
	w := livenet.NewWorld(1)
	a, b := w.AddNode(1), w.AddNode(2)
	echoUp := make(chan struct{})
	b.Spawn("echo", func(env cnet.Env) {
		env.BindDatagram("ping", func(from cnet.NodeID, m cnet.Message) {
			env.Send(from, cnet.ClassIntra, "pong", m, 64)
		})
		env.Listen("echo", func(cnet.Conn) cnet.StreamHandlers {
			return cnet.StreamHandlers{
				OnMessage: func(c cnet.Conn, m cnet.Message) { c.TrySend(m, 64) },
				OnClose:   func(cnet.Conn, error) {},
			}
		})
		close(echoUp)
	})
	// Unbuffered hand-offs: each round trip is one send and one reply.
	pong := make(chan struct{})
	envc := make(chan cnet.Env, 1)
	a.Spawn("client", func(env cnet.Env) {
		env.BindDatagram("pong", func(cnet.NodeID, cnet.Message) { pong <- struct{}{} })
		envc <- env
	})
	defer a.Proc("client").Kill()
	defer b.Proc("echo").Kill()
	env := <-envc
	<-echoUp

	wait := func() bool {
		select {
		case <-pong:
			return true
		case <-time.After(2 * time.Second):
			return false
		}
	}
	var dg []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		env.Send(2, cnet.ClassIntra, "ping", frontend.PingMsg{Seq: uint64(i)}, 64)
		if !wait() {
			r.wrong("livenet datagram %d lost", i)
			return
		}
		dg = append(dg, float64(time.Since(t))/float64(time.Microsecond))
	}
	connc := make(chan cnet.Conn, 1)
	env.Dial(2, cnet.ClassIntra, "echo", cnet.StreamHandlers{
		OnMessage: func(cnet.Conn, cnet.Message) { pong <- struct{}{} },
		OnClose:   func(cnet.Conn, error) {},
	}, func(c cnet.Conn, err error) {
		if err != nil {
			c = nil
		}
		connc <- c
	})
	c := <-connc
	if c == nil {
		r.wrong("livenet dial failed")
		return
	}
	var st []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		c.TrySend(frontend.PingMsg{Seq: uint64(i)}, 64)
		if !wait() {
			r.wrong("livenet stream message %d lost", i)
			return
		}
		st = append(st, float64(time.Since(t))/float64(time.Microsecond))
	}
	c.Close()
	r.set("livenet.dgram_rtt_us", "us", median(dg))
	r.set("livenet.stream_rtt_us", "us", median(st))
}

func nsPer(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(n)
}
