package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"press"
	"press/internal/faults"
	"press/internal/harness"
)

// paperFaithful regenerates the Faithful 4-node COOP and FME Table 1
// campaigns on the fast profile with cold caches: a fresh handle per
// version, serial engine. Set-up is each handle's saturation probe; the
// measured phase is the campaign, timed one episode at a time, in an
// order the benchmark seed permutes.
func paperFaithful(r *run, in input, tr *tracer) iteration {
	it := newIteration()
	sched := press.FastSchedule()
	order := rand.New(rand.NewSource(in.seed))
	versions := []press.Version{press.COOP, press.FME}
	order.Shuffle(len(versions), func(i, j int) { versions[i], versions[j] = versions[j], versions[i] })
	logEvents, succeeded := 0, 0.0
	for _, v := range versions {
		// The previous version's handle is garbage here.
		r.ref.read()
		c := press.New(press.WithVersion(v), press.WithOptions(press.FastOptions(in.world)), press.WithWorkers(1))
		s0 := time.Now()
		end := tr.begin(string(v) + " saturation probe")
		c.Saturation()
		end()
		it.setupOp(time.Since(s0))

		m0 := time.Now()
		top := c.Topology()
		specs := press.Table1(top.Nodes, 2, top.Frontend)
		order.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		for _, spec := range specs {
			t := time.Now()
			end := tr.begin(fmt.Sprintf("%s episode %v", v, spec.Type))
			ep, err := c.RunEpisode(spec.Type, harness.DefaultComponent(spec.Type), sched)
			end()
			it.op(time.Since(t), err != nil)
			if err != nil {
				r.wrong("%s episode %v: %v", v, spec.Type, err)
				continue
			}
			logEvents += ep.Log.Len()
			for _, b := range ep.Series.Buckets() {
				succeeded += b
			}
		}
		end = tr.begin(string(v) + " campaign assembly and model")
		camp, err := c.RunCampaign(sched)
		var unavail float64
		if err == nil {
			var res press.ModelResult
			res, err = camp.Model(press.DefaultModelEnv())
			unavail = res.Unavailability
		}
		end()
		it.wall += time.Since(m0).Seconds()
		if err != nil {
			r.wrong("%s campaign: %v", v, err)
			continue
		}
		it.outputs[string(v)+".episodes"] = len(camp.Eps)
		it.outputs[string(v)+".unavailability"] = unavail
	}
	it.census["metrics.log_events"] = float64(logEvents)
	it.census["workload.succeeded"] = succeeded
	return it
}

// paperFaithfulWarm pays the one-time costs of a process's first
// campaign: a saturation probe and one episode per version. Only the
// first episode of each version runs long in a process (two to eight
// times as long as later ones), so this warms up as well as a full
// iteration in half its time.
func paperFaithfulWarm(r *run, in input) {
	for _, v := range []press.Version{press.COOP, press.FME} {
		c := press.New(press.WithVersion(v), press.WithOptions(press.FastOptions(in.world)), press.WithWorkers(1))
		c.Saturation()
		top := c.Topology()
		spec := press.Table1(top.Nodes, 2, top.Frontend)[0]
		if _, err := c.RunEpisode(spec.Type, harness.DefaultComponent(spec.Type), press.FastSchedule()); err != nil {
			r.wrong("%s warm-up episode %v: %v", v, spec.Type, err)
		}
	}
}

// scaleWindow is the host-timed slice of the scale-256 fault storm.
const scaleWindow = 25 * time.Millisecond

// scaleSetups is how many times a scale-256 iteration builds and settles
// a world; the storm runs on the last. The same set-up took from 0.98 to
// 1.75 s within one process on a shared VM, so with one sample per
// iteration the run median spread by a quarter from run to run, and with
// two by 15 to 23%.
const scaleSetups = 3

// scale256 is the Scalable suite at N=256 and 40 req/s per node: the
// build and a 20 s simulated settle as set-up, then the two-minute fault
// storm of `reproduce -bench` (a crash, a link flap and an app hang, all
// repaired inside the window), run in 25 ms slices.
func scale256(r *run, in input, tr *tracer) iteration {
	it := newIteration()
	o := press.FastOptions(in.world)
	o.Nodes = 256
	o.Protocol = press.Scalable
	o.Rate = 40 * float64(o.Nodes)

	var dep *press.Deployment
	for i := 0; i < scaleSetups; i++ {
		// Collect the previous world first, so one world at a time is
		// live and the peak RSS is that of one world.
		dep = nil
		runtime.GC()
		it.newSetup()
		s0 := time.Now()
		end := tr.begin("build")
		dep = press.New(press.WithVersion(press.COOP), press.WithOptions(o)).Build()
		end()
		it.setupOp(time.Since(s0))
		dep.Gen.Start()
		s1 := time.Now()
		end = tr.begin("settle RunFor")
		dep.Sim.RunFor(20 * time.Second)
		end()
		it.setupOp(time.Since(s1))
	}

	t0, e0 := dep.Sim.Now(), dep.Sim.EventsFired()
	m0 := time.Now()
	end := tr.begin("inject")
	crash, err1 := dep.Injector.Inject(press.NodeCrash, 1)
	flap, err2 := dep.Injector.InjectFlap(press.LinkDown, 2, faults.Flap{On: 15 * time.Second, Off: 5 * time.Second})
	hang, err3 := dep.Injector.Inject(press.AppHang, 3)
	end()
	if err := firstErr(err1, err2, err3); err != nil {
		r.wrong("scale-256 inject: %v", err)
		return it
	}
	window := func() {
		for i := 0; i < int(time.Minute/scaleWindow); i++ {
			t := time.Now()
			end := tr.begin("RunFor window")
			dep.Sim.RunFor(scaleWindow)
			end()
			it.op(time.Since(t), false)
		}
	}
	window()
	end = tr.begin("repair")
	err1, err2 = crash.Repair(), flap.Repair()
	// FME may already have turned the hang into a restart; then the
	// slot is repaired and this is a no-op.
	_ = hang.Repair()
	end()
	if err := firstErr(err1, err2); err != nil {
		r.wrong("scale-256 repair: %v", err)
	}
	window()
	it.wall = time.Since(m0).Seconds()

	events := dep.Sim.EventsFired() - e0
	it.outputs["events"] = events
	it.outputs["availability"] = dep.Rec.Availability(t0, dep.Sim.Now())
	worldCensus(it.census, dep)
	it.census["sim.events"] = float64(events)
	return it
}

// worldCensus reads the public counters of a built deployment.
func worldCensus(c map[string]float64, dep *press.Deployment) {
	var st struct{ served, hits, fwd, disk float64 }
	for i := range dep.Machines {
		if s := dep.Server(i); s != nil {
			x := s.Stats()
			st.served += float64(x.Served)
			st.hits += float64(x.LocalHits)
			st.fwd += float64(x.ForwardsOut)
			st.disk += float64(x.DiskReads)
		}
	}
	var reads uint64
	for _, m := range dep.Machines {
		if m.Disks() != nil {
			for _, d := range m.Disks().Disks() {
				reads += d.Reads()
			}
		}
	}
	c["sim.max_queued"] = float64(dep.Sim.MaxQueued())
	c["simdisk.reads"] = float64(reads)
	c["server.served"] = st.served
	if st.served > 0 {
		c["server.local_hit_frac"] = st.hits / st.served
		c["server.forwards_per_request"] = st.fwd / st.served
		c["server.disk_reads_per_request"] = st.disk / st.served
	}
	if fe := dep.Frontend(); fe != nil {
		c["frontend.relayed"] = float64(fe.Relayed())
	}
	c["workload.offered"] = float64(dep.Rec.Offered)
	c["workload.succeeded"] = float64(dep.Rec.Succeeded)
	c["workload.failed"] = float64(dep.Rec.Failed)
	c["metrics.log_events"] = float64(dep.Log.Len())
}

// Warm-fork campaign shape: the BENCH_8 profile (long warm ramp, short
// fault horizon), 32 seeds played from one warm snapshot.
const warmForkSeeds = 32

func warmForkConfig(ws int64) (press.Options, press.ChaosRunConfig, press.ChaosGenConfig) {
	o := press.FastOptions(ws)
	o.Rate = 100
	o.Warmup = 10 * time.Minute
	rc := press.ChaosRunConfig{
		Settle:       10 * time.Second,
		DrainGrace:   45 * time.Second,
		ResetLimit:   60 * time.Second,
		FinalObserve: 15 * time.Second,
	}
	gen := press.ChaosGenConfig{
		Horizon:   time.Minute,
		MinActive: 15 * time.Second,
		MaxActive: 40 * time.Second,
		MaxFaults: 6,
	}
	return o, rc, gen
}

// warmFork warms and captures one COOP world (set-up), then plays one
// generated chaos schedule per seed, each forked from the snapshot.
func warmFork(r *run, in input, tr *tracer) iteration {
	it := newIteration()
	o, rc, gen := warmForkConfig(in.world)
	prev := press.SetGlobalWorkers(1)
	defer press.SetGlobalWorkers(prev)
	press.ResetGlobalCaches()

	s0 := time.Now()
	end := tr.begin("warm-up and capture")
	snap, err := press.WarmChaosSnapshot(press.COOP, o, rc)
	end()
	it.setupOp(time.Since(s0))
	if err != nil {
		r.wrong("warm-fork snapshot: %v", err)
		return it
	}
	m0 := time.Now()
	st := playSeeds(r, snap, o, rc, gen, press.ChaosSeeds(warmForkSeeds), tr, &it)
	it.wall = time.Since(m0).Seconds()

	it.outputs["snapshot_hash"] = snap.Hash()
	it.outputs["violations"] = st.violations
	it.outputs["succeeded"] = st.succeeded
	it.census["chaos.violations"] = float64(st.violations)
	it.census["workload.offered"] = float64(st.offered)
	it.census["workload.succeeded"] = float64(st.succeeded)
	it.census["workload.failed"] = float64(st.failedReqs)
	it.census["metrics.log_events"] = float64(st.logEvents)
	return it
}

// seedStats sums what a set of chaos seeds measured.
type seedStats struct {
	violations, logEvents          int
	offered, succeeded, failedReqs uint64
	generate, check                []float64 // host µs per seed
}

// playSeeds generates, forks and judges one schedule per seed, as
// RunChaosCampaignFromSnapshot does, timing each seed as one operation.
// A seed that errors or violates an invariant is a failed operation.
func playSeeds(r *run, snap *press.Snapshot, o press.Options, rc press.ChaosRunConfig, gen press.ChaosGenConfig, seeds []int64, tr *tracer, it *iteration) seedStats {
	var st seedStats
	invs := press.ChaosInvariants()
	for _, seed := range seeds {
		t := time.Now()
		end := tr.begin(fmt.Sprintf("seed %d", seed))
		g := o
		g.Rate = snap.Rate
		g.Seed = seed
		sched := press.GenerateChaos(seed, press.COOP, g, gen)
		g1 := time.Now()
		res, err := press.RunChaosFromSnapshot(snap, sched, rc)
		c0 := time.Now()
		var viols []press.ChaosViolation
		if err == nil {
			viols = press.CheckChaos(&res, invs)
		}
		c1 := time.Now()
		end()
		st.generate = append(st.generate, float64(g1.Sub(t))/float64(time.Microsecond))
		st.check = append(st.check, float64(c1.Sub(c0))/float64(time.Microsecond))
		if err != nil {
			r.wrong("chaos seed %d: %v", seed, err)
		}
		if len(viols) > 0 {
			st.violations++
			r.wrong("chaos seed %d violates %v", seed, viols)
		}
		it.op(time.Since(t), err != nil || len(viols) > 0)
		st.offered += res.Offered
		st.succeeded += res.Succeeded
		st.failedReqs += res.Failed
		if res.Log != nil {
			st.logEvents += res.Log.Len()
		}
	}
	return st
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
