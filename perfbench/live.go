package main

import (
	"errors"
	"math/rand"
	"os"
	"time"

	"press/internal/cnet"
	"press/internal/frontend"
	"press/internal/livenet"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/server"
	"press/internal/trace"
)

// The live cluster: Faithful COOP, three servers behind one front-end on
// loopback TCP, driven open loop at a fixed rate. At 1000 req/s its p99
// rises to hundreds of ms and requests fail; 400 req/s is steady.
const (
	liveNodes    = 3
	liveRate     = 400 // requests per second
	liveHB       = 500 * time.Millisecond
	liveTimeout  = 5 * time.Second // a request unanswered this long has failed
	liveWarm     = time.Second
	liveWindow   = 5 * time.Second // 2000 requests: 20 beyond the p99
	liveFE       = cnet.NodeID(90)
	liveClientID = cnet.NodeID(1000)
)

// liveCluster is one running live world.
type liveCluster struct {
	procs  []*livenet.Proc
	cat    *trace.Catalog
	log    *metrics.Log
	client cnet.Env
}

// startLive starts the cluster the way cmd/pressd does and returns once
// the client and front-end processes are up.
func startLive() *liveCluster {
	w := livenet.NewWorld(1)
	cl := &liveCluster{cat: trace.NewCatalog(500, 27*1024, 0.8), log: w.Log()}
	var ids []cnet.NodeID
	for i := 0; i < liveNodes; i++ {
		ids = append(ids, cnet.NodeID(i))
	}
	for _, id := range ids {
		id := id
		n := w.AddNode(id)
		pub := &membership.Published{}
		cl.procs = append(cl.procs,
			n.Spawn("membd", func(env cnet.Env) {
				membership.NewDaemon(membership.Config{Self: id, HBPeriod: liveHB, HBMiss: 3, Peers: ids}, env, pub)
			}),
			n.Spawn("icmp", func(env cnet.Env) { frontend.NewPingResponder(env) }),
			n.Spawn("press", func(env cnet.Env) {
				server.New(server.Config{
					Self: id, Nodes: ids, Cooperative: true,
					HeartbeatPeriod: liveHB, JoinTimeout: time.Second,
					Catalog: cl.cat, CacheBytes: cl.cat.TotalBytes(),
					MembershipPoll: liveHB / 2,
				}, env, livenet.MemDisk{Service: time.Millisecond},
					membership.NewClient(env, pub, liveHB/2))
			}))
	}
	feUp := make(chan struct{})
	cl.procs = append(cl.procs, w.AddNode(liveFE).Spawn("frontend", func(env cnet.Env) {
		frontend.New(frontend.Config{
			Self: liveFE, Backends: ids,
			PingPeriod: liveHB, PingMiss: 3,
			ConnMonitor: true, ConnPeriod: liveHB, ConnDeadline: 2 * liveHB,
		}, env)
		close(feUp)
	}))
	clientUp := make(chan struct{})
	cl.procs = append(cl.procs, w.AddNode(liveClientID).Spawn("client", func(env cnet.Env) {
		cl.client = env
		close(clientUp)
	}))
	<-feUp
	<-clientUp
	return cl
}

// stop kills every process of the world. Sockets the program leaks stay
// open: the benchmark reports them, it does not clean up after them.
func (cl *liveCluster) stop() {
	for _, p := range cl.procs {
		p.Kill()
	}
}

// send issues one HTTP request through the front-end; done runs once,
// on the client's dispatch loop, with whether a correct answer came
// back.
func (cl *liveCluster) send(doc trace.DocID, done func(ok bool)) {
	finished := false
	finish := func(ok bool) {
		if !finished {
			finished = true
			done(ok)
		}
	}
	h := cnet.StreamHandlers{
		OnMessage: func(c cnet.Conn, m cnet.Message) {
			if resp, isResp := m.(*server.RespMsg); isResp {
				// The server numbers responses itself; a correct answer
				// is a successful, non-probe response.
				finish(resp.OK && !resp.Probe)
				c.Close()
			}
		},
		OnClose: func(cnet.Conn, error) { finish(false) },
	}
	cl.client.Dial(liveFE, cnet.ClassClient, server.PortHTTP, h, func(c cnet.Conn, err error) {
		if err != nil {
			finish(false)
			return
		}
		c.TrySend(&server.ReqMsg{Doc: doc}, 256)
	})
}

// ready waits until every server has finished starting (joined its
// group) and then until a request is served.
func (cl *liveCluster) ready(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for cl.log.Count(metrics.EvServerUp) < liveNodes {
		if time.Now().After(deadline) {
			return errors.New("live servers did not start")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		got := make(chan bool, 1)
		cl.send(0, func(ok bool) { got <- ok })
		select {
		case ok := <-got:
			if ok {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		case <-time.After(time.Second):
		}
	}
	return errors.New("live cluster did not serve a request")
}

// outcome is one request's result.
type outcome struct {
	ok      bool
	latency time.Duration // from the request's due time
}

// drive offers liveRate requests per second for window, open loop: each
// request is due at a fixed instant and is timed from it, so a stall
// delays every later request's latency. It returns the outcomes in
// request order (a request still unanswered liveTimeout after its due
// time has failed, with that latency) and how late each send was.
func (cl *liveCluster) drive(docs []trace.DocID) (outs []outcome, late []float64) {
	n := len(docs)
	period := time.Second / liveRate
	// Sized to the request count: every request sends exactly once, so
	// a callback never blocks the client's dispatch loop.
	results := make(chan struct {
		i int
		o outcome
	}, n)
	t0 := time.Now()
	for i, doc := range docs {
		i, due := i, t0.Add(time.Duration(i)*period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		cl.send(doc, func(ok bool) {
			results <- struct {
				i int
				o outcome
			}{i, outcome{ok, time.Since(due)}}
		})
	}
	outs = make([]outcome, n)
	for i := range outs {
		outs[i] = outcome{false, liveTimeout}
	}
	deadline := time.After(time.Until(t0.Add(time.Duration(n-1)*period + liveTimeout)))
	for got := 0; got < n; got++ {
		select {
		case res := <-results:
			outs[res.i] = res.o
		case <-deadline:
			return outs, late
		}
	}
	return outs, late
}

// liveCosts drives the live loopback cluster open loop at liveRate for
// liveWindow, after a warm-up window, and records request latency (timed
// from each request's due time), how late the generator ran, and the
// open fds the window left behind per request. Failed requests count as
// failed operations.
func liveCosts(r *run) {
	cl := startLive()
	defer cl.stop()
	if err := cl.ready(15 * time.Second); err != nil {
		r.wrong("%v", err)
		return
	}
	rng := rand.New(rand.NewSource(1))
	sample := func(d time.Duration) []trace.DocID {
		docs := make([]trace.DocID, int(d.Seconds()*liveRate))
		for i := range docs {
			docs[i] = cl.cat.Sample(rng)
		}
		return docs
	}
	cl.drive(sample(liveWarm))
	docs := sample(liveWindow)
	fd0 := openFDs()
	outs, late := cl.drive(docs)
	fds := openFDs() - fd0
	var lat []float64
	failed := 0
	for _, o := range outs {
		lat = append(lat, ms(o.latency))
		if !o.ok {
			failed++
		}
	}
	r.count(len(outs), failed)
	r.set("live.p50_ms", "ms", quantile(lat, 0.50))
	r.set("live.p99_ms", "ms", quantile(lat, 0.99))
	r.set("live.gen_late_ms", "ms", quantile(late, 0.99))
	r.set("livenet.fds_per_request", "ratio", float64(fds)/float64(len(outs)))
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
