package harness

import (
	"fmt"
	"time"

	"press/internal/faults"
	"press/internal/metrics"
	"press/internal/template7"
)

// EpisodeSchedule controls a phase-1 single-fault injection run. Zero
// fields take defaults. Only the transient stages' lengths come from the
// run; the model later substitutes MTTR for stage C and the operator
// response for stage E, so FaultActive and the observation windows just
// need to be long enough to see stable levels.
type EpisodeSchedule struct {
	Settle        time.Duration // post-warmup settling before injection
	FaultActive   time.Duration // injection -> repair
	ObserveRepair time.Duration // repair -> reintegration verdict
	ResetLimit    time.Duration // max wait for reintegration after reset
	ObserveG      time.Duration // post-reset observation
}

func (e EpisodeSchedule) withDefaults() EpisodeSchedule {
	if e.Settle == 0 {
		e.Settle = 60 * time.Second
	}
	if e.FaultActive == 0 {
		e.FaultActive = 150 * time.Second
	}
	if e.ObserveRepair == 0 {
		e.ObserveRepair = 90 * time.Second
	}
	if e.ResetLimit == 0 {
		e.ResetLimit = 90 * time.Second
	}
	if e.ObserveG == 0 {
		e.ObserveG = 90 * time.Second
	}
	return e
}

// Episode is the outcome of one injection run.
type Episode struct {
	Version   Version
	Fault     faults.Type
	Component int
	Normal    float64 // fault-free throughput before injection
	Offered   float64
	Markers   template7.Markers
	Tpl       template7.Template
	Dips      []template7.Dip // throughput excursions over the episode; >1 flags a multi-dip episode
	Series    *metrics.Series // per-second successful completions
	Log       *metrics.Log
}

// DefaultComponent picks the injected component index for each fault
// class: node-scoped faults hit node 1 (not node 0, which doubles as the
// join-protocol responder — the paper, too, injected into ordinary
// members), SCSI hits node 1's first disk.
func DefaultComponent(f faults.Type) int {
	switch f {
	case faults.SwitchDown, faults.FrontendFailure:
		return 0
	case faults.SCSITimeout, faults.DiskDegraded:
		return 2 // node 1, disk 0
	default:
		return 1
	}
}

// faultNode maps (fault, component) to the affected server node, or -1
// when the fault is not node-scoped.
func faultNode(f faults.Type, comp int) int {
	switch f {
	case faults.SwitchDown, faults.FrontendFailure:
		return -1
	case faults.SCSITimeout, faults.DiskDegraded:
		return comp / 2
	default:
		return comp
	}
}

// warmWorld builds a world and simulates the warm prefix every episode
// shares: the load ramp plus the settling window, up to the instant a
// fault would be injected. The offered rate resolves on e, so the
// saturation probe runs (once) inside e's memo and worker bound.
func (e *Engine) warmWorld(v Version, o Options, sched EpisodeSchedule) *Cluster {
	c := e.Build(v, o)
	c.Gen.Start()
	c.Sim.RunFor(o.Warmup + sched.Settle)
	return c
}

// runEpisodeCold is the measurement on a freshly simulated prefix: the
// path of versions the snapshot engine does not cover, and the cold
// reference the fork differential compares against. It builds a private
// sim.Sim, so concurrent invocations cannot interact.
func (e *Engine) runEpisodeCold(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	return finishEpisode(e.warmWorld(v, o, sched), f, comp, sched)
}

// runEpisodeForked is the measurement on a world restored from the
// version's warm capture.
func runEpisodeForked(w *warmCapture, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	c, err := w.restore()
	if err != nil {
		return Episode{Version: w.v, Fault: f, Component: comp}, fmt.Errorf("harness: %v/%v: restoring warm capture: %w", w.v, f, err)
	}
	return finishEpisode(c, f, comp, sched.withDefaults())
}

// finishEpisode runs everything after the warm prefix on c: injection,
// repair, the reintegration verdict and operator reset, and the
// template extraction. c must sit exactly at the end of the prefix.
func finishEpisode(c *Cluster, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	v := c.Version
	ep := Episode{Version: v, Fault: f, Component: comp, Offered: c.Offered(), Log: c.Log}
	if !c.Injector.Applicable(f) {
		return ep, fmt.Errorf("harness: %v not applicable to %v", f, v)
	}

	tFault := c.Sim.Now()
	ep.Normal = c.Rec.MeanThroughput(tFault-sched.Settle+10*time.Second, tFault)
	active, err := c.Injector.Inject(f, comp)
	if err != nil {
		return ep, fmt.Errorf("harness: %v/%v: %w", v, f, err)
	}
	c.Sim.RunFor(sched.FaultActive)

	tRepair := c.Sim.Now()
	_ = active.Repair()
	c.Sim.RunFor(sched.ObserveRepair)

	m := template7.Markers{Fault: tFault, Recover: tRepair}

	if c.Reintegrated() {
		m.End = c.Sim.Now()
	} else {
		// Operator reset (§3). The measured reset/warmup transients feed
		// stages F and G; the model substitutes the operator response
		// time for stage E's duration.
		m.Reset = c.Sim.Now()
		c.OperatorReset()
		deadline := c.Sim.Now() + sched.ResetLimit
		for c.Sim.Now() < deadline && !c.Reintegrated() {
			c.Sim.RunFor(2 * time.Second)
		}
		m.AllUp = c.Sim.Now()
		c.Sim.RunFor(sched.ObserveG)
		m.End = c.Sim.Now()
	}
	c.Gen.Stop()

	// Locate the numbered events in the log and series.
	m.Detect = findDetection(c.Log, f, comp, tFault, tRepair)
	m.Stable1 = template7.FindStable(c.Rec.Throughput, m.Detect+2*time.Second, tRepair, 8, 0.12)
	limit2 := m.Reset
	if limit2 == 0 {
		limit2 = m.End
	}
	m.Stable2 = template7.FindStable(c.Rec.Throughput, tRepair+2*time.Second, limit2, 8, 0.12)

	ep.Markers = m
	ep.Series = c.Rec.Throughput
	// ExtractMulti instead of Extract: gray faults (a flapping lossy link
	// especially) can dip throughput more than once per episode, and the
	// stabilization searches above may then land out of order. The fit is
	// identical to Extract's for well-ordered single-dip episodes.
	tpl, dips, err := template7.ExtractMulti(f.String(), c.Rec.Throughput, m, ep.Normal, 0)
	if err != nil {
		return ep, fmt.Errorf("harness: %v/%v: %w", v, f, err)
	}
	ep.Tpl = tpl
	ep.Dips = dips
	return ep, nil
}

// findDetection locates template event 2: the first detection-like event
// for the injected component after the fault. A fault nothing ever
// detects (e.g. a front-end crash with no redundant front-end) yields
// Detect == Fault: the whole episode is one degraded stage, which is
// exactly how the template handles undetected faults.
func findDetection(log *metrics.Log, f faults.Type, comp int, tFault, tRepair time.Duration) time.Duration {
	node := faultNode(f, comp)
	q := log.Between(tFault, tRepair)
	if node >= 0 {
		q = q.Node(node)
	}
	ev, ok := q.FirstWhere(func(e metrics.Event) bool {
		switch e.Kind {
		case metrics.EvDetect, metrics.EvQMonFail, metrics.EvFMEAction:
			return true
		}
		return false
	})
	if !ok {
		return tFault
	}
	return ev.At
}
